// Ablation: the three ⋉̸ methods (sort/merge, classic hash, range-
// partitioned hash) on the same vertical plan, as the delete-list size
// crosses the memory budget (§2.2's join-method tradeoff). The paper argues
// the differences mirror sort-vs-hash joins and are small next to the
// horizontal/vertical gap — this bench quantifies that for our substrate.

#include <cstdio>

#include "bench/bench_common.h"

namespace bulkdel {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  std::printf("Ablation: ⋉̸ method sweep, 3 indices\n");

  struct SeriesDef {
    const char* name;
    Strategy strategy;
  };
  const SeriesDef series[] = {
      {"sort/merge", Strategy::kVerticalSortMerge},
      {"classic hash", Strategy::kVerticalHash},
      {"partitioned hash", Strategy::kVerticalPartitionedHash},
      {"optimizer", Strategy::kOptimizer},
  };

  size_t previous_memory = 0;
  for (double paper_mb : {5.0, 0.25}) {
    size_t memory = config.ScaledMemoryBytes(paper_mb);
    if (memory == previous_memory) {
      // Below the 64 KiB floor both budgets clamp to it, and the second
      // table would repeat the first cell for cell.
      std::printf("\n(paper-scale %.2f MB also scales to %zu KiB at this "
                  "table size: its table is the one above)\n",
                  paper_mb, memory / 1024);
      continue;
    }
    previous_memory = memory;
    char title[128];
    std::snprintf(title, sizeof(title),
                  "⋉̸ methods at %zu KiB memory (paper-scale %.2f MB), in SECONDS",
                  memory / 1024, paper_mb);
    ResultTable table(config, memory, title, "deleted (%)",
                      {"sort/merge", "classic hash", "partitioned hash",
                       "optimizer"},
                      /*show_wall=*/false, /*seconds=*/true);
    for (double fraction : {0.05, 0.15, 0.30}) {
      char x[16];
      std::snprintf(x, sizeof(x), "%.0f%%", fraction * 100);
      for (const SeriesDef& s : series) {
        auto bench = BuildBenchDb(config, {"A", "B", "C"}, memory);
        if (!bench.ok()) {
          std::fprintf(stderr, "setup: %s\n",
                       bench.status().ToString().c_str());
          return 1;
        }
        auto report = RunDelete(&*bench, fraction, s.strategy);
        if (!report.ok()) {
          std::fprintf(stderr, "run: %s\n",
                       report.status().ToString().c_str());
          return 1;
        }
        table.AddCell(x, s.name, *report);
      }
    }
    table.Print();
  }
  std::printf(
      "\nexpectation: all three vertical methods within a small factor of "
      "each\nother (the hash variants skip the feed sorts; partitioned pays "
      "staging\nI/O once the list outgrows memory); the optimizer should "
      "track the best.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::bench::Run(argc, argv); }
