// Figure 7 / Experiment 1: vary the number of deleted records (5–20 %),
// one unclustered index, 5 MB memory (scaled).
// Series: sorted/trad, not sorted/trad, bulk delete (vertical sort/merge).
//
// Expected shape: both traditional variants climb steeply with the delete
// fraction; bulk delete stays nearly flat; at 20 % the gap to not-sorted
// traditional approaches an order of magnitude.

#include <cstdio>

#include "bench/bench_common.h"

namespace bulkdel {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  size_t memory = config.ScaledMemoryBytes(5.0);
  std::printf("Figure 7: %llu tuples x %u B, 1 unclustered index, %zu KiB\n",
              static_cast<unsigned long long>(config.n_tuples),
              config.tuple_size, memory / 1024);

  struct SeriesDef {
    const char* name;
    Strategy strategy;
  };
  const SeriesDef series[] = {
      {"sorted/trad", Strategy::kTraditionalSorted},
      {"not sorted/trad", Strategy::kTraditional},
      {"bulk delete", Strategy::kVerticalSortMerge},
  };
  ResultTable table(config, memory,
                    "Figure 7: vary deleted tuples, 1 unclustered index",
                    "deleted (%)",
                    {"sorted/trad", "not sorted/trad", "bulk delete"},
                    /*show_wall=*/true);
  for (double fraction : {0.05, 0.10, 0.15, 0.20}) {
    char x[16];
    std::snprintf(x, sizeof(x), "%.0f%%", fraction * 100);
    for (const SeriesDef& s : series) {
      auto bench = BuildBenchDb(config, {"A"}, memory);
      if (!bench.ok()) {
        std::fprintf(stderr, "setup: %s\n", bench.status().ToString().c_str());
        return 1;
      }
      auto report = RunDelete(&*bench, fraction, s.strategy);
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
      "\npaper (Fig. 7, 1M x 512B): at 20%% — not sorted/trad >2h, "
      "sorted/trad ~1h20m,\nbulk delete ~30min (nearly flat across "
      "5-20%%).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::bench::Run(argc, argv); }
