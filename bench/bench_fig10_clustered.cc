// Figure 10 / Experiment 5: clustered index. Table R is physically sorted
// by A, so the index on A is clustered; 6–20 % deletes, 5 MB memory
// (scaled).
// Series: sorted/trad/clust, sorted/trad/unclust (baseline from Fig. 7),
// not sorted/trad/clust, bulk delete.
//
// Expected shape: with a clustered key index and a sorted list, the
// traditional approach turns its table accesses sequential and slightly
// *beats* bulk delete (which pays its fixed leaf/table passes without
// gaining anything from the clustering) — the paper's analogue of index
// nested-loop joins winning on a clustered index with sorted outer. The
// not-sorted variant still performs poorly.

#include <cstdio>

#include "bench/bench_common.h"

namespace bulkdel {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  size_t memory = config.ScaledMemoryBytes(5.0);
  std::printf("Figure 10: %llu tuples x %u B, clustered I_A, %zu KiB\n",
              static_cast<unsigned long long>(config.n_tuples),
              config.tuple_size, memory / 1024);

  struct SeriesDef {
    const char* name;
    Strategy strategy;
    bool clustered;
  };
  const SeriesDef series[] = {
      {"sorted/trad/clust", Strategy::kTraditionalSorted, true},
      {"sorted/trad/unclust", Strategy::kTraditionalSorted, false},
      {"not sorted/trad/clust", Strategy::kTraditional, true},
      {"bulk delete", Strategy::kVerticalSortMerge, true},
  };
  ResultTable table(config, memory, "Figure 10: clustered index",
                    "deleted (%)",
                    {"sorted/trad/clust", "sorted/trad/unclust",
                     "not sorted/trad/clust", "bulk delete"});
  for (double fraction : {0.06, 0.10, 0.15, 0.20}) {
    char x[16];
    std::snprintf(x, sizeof(x), "%.0f%%", fraction * 100);
    for (const SeriesDef& s : series) {
      auto bench = BuildBenchDb(config, {"A"}, memory, s.clustered);
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
  std::printf(
      "\npaper (Fig. 10): sorted/trad/clust is the best series (slightly "
      "below\nbulk delete); bulk delete close behind and flat; "
      "sorted/trad/unclust\nclimbs to ~100min at 20%%; not sorted/trad/clust "
      "worst (~150min+).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::bench::Run(argc, argv); }
