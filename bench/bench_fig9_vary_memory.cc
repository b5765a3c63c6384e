// Figure 9 / Experiment 4: vary the available main memory (paper: 2, 6,
// 10 MB; scaled to our table size), 1 unclustered index, 15 % deletes.
// Series: sorted/trad, not sorted/trad, bulk delete.
//
// Expected shape: bulk delete is flat — even the smallest memory sorts the
// delete list in one pass and the merging passes need almost nothing.
// not sorted/trad improves markedly with memory (random probes start
// hitting the cache); sorted/trad improves mildly.

#include <cstdio>

#include "bench/bench_common.h"

namespace bulkdel {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  std::printf("Figure 9: %llu tuples x %u B, 15%% deletes, 1 uncl. index\n",
              static_cast<unsigned long long>(config.n_tuples),
              config.tuple_size);

  struct SeriesDef {
    const char* name;
    Strategy strategy;
  };
  const SeriesDef series[] = {
      {"sorted/trad", Strategy::kTraditionalSorted},
      {"not sorted/trad", Strategy::kTraditional},
      {"bulk delete", Strategy::kVerticalSortMerge},
  };
  ResultTable table(config, 0, "Figure 9: vary available memory, 15% deleted",
                    "memory",
                    {"sorted/trad", "not sorted/trad", "bulk delete"},
                    /*show_wall=*/true);
  for (double paper_mb : {2.0, 6.0, 10.0}) {
    size_t memory = config.ScaledMemoryBytes(paper_mb);
    table.set_memory_bytes(memory);
    char x[32];
    std::snprintf(x, sizeof(x), "%.0fMB (%zuKiB)", paper_mb, memory / 1024);
    for (const SeriesDef& s : series) {
      auto bench = BuildBenchDb(config, {"A"}, memory);
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
  MaybeExportPerfetto(config);
  std::printf(
      "\npaper (Fig. 9): bulk delete flat ~25min from 2MB up; not "
      "sorted/trad\nfalls ~180 -> ~130 min as memory grows 2->10MB; "
      "sorted/trad falls mildly\n~70 -> ~60 min.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::bench::Run(argc, argv); }
