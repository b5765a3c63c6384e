// Figure 8 / Experiment 2: vary the number of indices (1–3) at 15 % deletes,
// unclustered indices, 5 MB memory (scaled).
// Series: sorted/trad, not sorted/trad, drop/create, bulk delete.
//
// Expected shape: the traditional variants grow with every added index (one
// more root-to-leaf probe per deleted record each); bulk delete adds only
// one cheap sequential leaf pass per index and stays almost flat. Note on
// drop/create: in the paper's prototype index creation was slow, making
// drop/create the worst series; our rebuild uses external sort + bulk
// loading, so drop/create behaves like the *commercial* system of Fig. 1
// (flat, beating traditional). EXPERIMENTS.md discusses the difference.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace bulkdel {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  size_t memory = config.ScaledMemoryBytes(5.0);
  std::printf(
      "Figure 8: %llu tuples x %u B, 15%% deletes, %zu KiB, %d thread(s)\n",
      static_cast<unsigned long long>(config.n_tuples), config.tuple_size,
      memory / 1024, config.exec_threads);

  struct SeriesDef {
    const char* name;
    Strategy strategy;
  };
  const SeriesDef series[] = {
      {"sorted/trad", Strategy::kTraditionalSorted},
      {"not sorted/trad", Strategy::kTraditional},
      {"drop/create", Strategy::kDropCreate},
      {"bulk delete", Strategy::kVerticalSortMerge},
  };
  ResultTable table(config, memory,
                    "Figure 8: vary number of indices, 15% deleted",
                    "# indices",
                    {"sorted/trad", "not sorted/trad", "drop/create",
                     "bulk delete"});
  const std::vector<std::string> all_columns = {"A", "B", "C"};
  for (int n_indices = 1; n_indices <= 3; ++n_indices) {
    std::vector<std::string> columns(all_columns.begin(),
                                     all_columns.begin() + n_indices);
    std::string x = std::to_string(n_indices);
    for (const SeriesDef& s : series) {
      if (s.strategy == Strategy::kDropCreate && n_indices == 1) {
        // No secondary index to drop: the paper omits this point too.
        continue;
      }
      auto bench = BuildBenchDb(config, columns, memory);
      if (!bench.ok()) {
        std::fprintf(stderr, "setup: %s\n", bench.status().ToString().c_str());
        return 1;
      }
      auto report = RunDelete(&*bench, 0.15, s.strategy);
      if (!report.ok()) {
        std::fprintf(stderr, "run: %s\n", report.status().ToString().c_str());
        return 1;
      }
      table.AddCell(x, s.name, *report);
    }
  }
  table.Print();
  std::printf(
      "\npaper (Fig. 8, 1M x 512B): at 3 indices — not sorted/trad >3h,\n"
      "sorted/trad >2h, drop/create worst in *their* prototype (slow index\n"
      "creation; the commercial system of Fig. 1 shows it flat instead),\n"
      "bulk delete ~30 min.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::bench::Run(argc, argv); }
