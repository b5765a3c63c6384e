// Table 1 / Experiment 3: vary the height of the index. The paper builds a
// height-4 version of I_A by artificially storing only 100 keys per inner
// node; we shrink the inner fan-out until the bulk-loaded tree gains a
// level. 15 % deletes, one unclustered index, 5 MB memory (scaled).
//
// Rows: sorted/bulk, not sorted/bulk, sorted/trad, not sorted/trad.
// Expected shape: bulk delete is essentially independent of the height (it
// never traverses root-to-leaf per record — it runs along the leaf level);
// the traditional variants get sharply worse with the extra level.

#include <cstdio>

#include "bench/bench_common.h"

namespace bulkdel {
namespace bench {
namespace {

struct Cell {
  const char* name;
  Strategy strategy;
  bool pre_sorted;
};

int Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  size_t memory = config.ScaledMemoryBytes(5.0);
  std::printf("Table 1: %llu tuples x %u B, 15%% deletes, %zu KiB\n",
              static_cast<unsigned long long>(config.n_tuples),
              config.tuple_size, memory / 1024);

  const Cell cells[] = {
      {"sorted/bulk", Strategy::kVerticalSortMerge, true},
      {"not sorted/bulk", Strategy::kVerticalSortMerge, false},
      {"sorted/trad", Strategy::kTraditionalSorted, true},
      {"not sorted/trad", Strategy::kTraditional, false},
  };

  ResultTable table(config, memory, "Table 1: vary index height", "approach",
                    {"normal height", "height + 1"});
  int heights[2] = {0, 0};
  for (int tall = 0; tall <= 1; ++tall) {
    IndexOptions a_options;
    if (tall) {
      // Shrink the inner fan-out until the index gains a level, mirroring
      // the paper's 100-keys-per-node trick at their scale.
      for (uint16_t fanout : {100, 40, 16, 8, 4}) {
        a_options.max_inner_entries = fanout;
        auto probe = BuildBenchDb(config, {"A"}, memory, false, a_options);
        if (!probe.ok()) return 1;
        int h = probe->db->GetIndex("R", "A")->tree->height();
        if (heights[0] > 0 && h > heights[0]) break;
      }
    }
    for (const Cell& cell : cells) {
      auto bench = BuildBenchDb(config, {"A"}, memory, false, a_options);
      if (!bench.ok()) {
        std::fprintf(stderr, "setup: %s\n", bench.status().ToString().c_str());
        return 1;
      }
      heights[tall] = bench->db->GetIndex("R", "A")->tree->height();
      auto report = RunDelete(&*bench, 0.15, cell.strategy, /*key_seed=*/1,
                              cell.pre_sorted);
      if (!report.ok()) {
        std::fprintf(stderr, "run: %s\n", report.status().ToString().c_str());
        return 1;
      }
      table.AddCell(cell.name, tall ? "height + 1" : "normal height",
                    *report, {{"height", static_cast<double>(heights[tall])}});
    }
  }
  table.Print();
  std::printf("\nmeasured index heights: normal=%d, tall=%d\n", heights[0],
              heights[1]);
  std::printf(
      "\npaper (Table 1, heights 3 vs 4, minutes):\n"
      "  sorted/bulk      24.87 -> 26.79\n"
      "  not sorted/bulk  24.87 -> 26.79\n"
      "  sorted/trad      64.65 -> 80.65\n"
      "  not sorted/trad 102.05 -> 136.09\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::bench::Run(argc, argv); }
