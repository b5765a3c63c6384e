// Figure 1 of the paper: bulk deletes on a commercial RDBMS — 500 MB table,
// three indices, varying the number of deleted tuples (1/5/10/15 %).
// Series: `traditional` (record-at-a-time, unsorted delete list, the way the
// commercial product executed the statement) and `drop & create` (drop the
// secondary indices, delete, re-create).
//
// Expected shape: traditional climbs steeply (≈ 3 h at 15 % at paper scale);
// drop & create grows much more slowly and wins beyond ~5 %.

#include <cstdio>

#include "bench/bench_common.h"

namespace bulkdel {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  size_t memory = config.ScaledMemoryBytes(5.0);
  std::printf("Figure 1: %llu tuples x %u B, 3 indices, memory %zu KiB\n",
              static_cast<unsigned long long>(config.n_tuples),
              config.tuple_size, memory / 1024);

  ResultTable table(config, memory,
                    "Figure 1: commercial-style baseline, 3 indices",
                    "deleted (%)", {"traditional", "drop & create"});
  const double fractions[] = {0.01, 0.05, 0.10, 0.15};
  for (double fraction : fractions) {
    char x[16];
    std::snprintf(x, sizeof(x), "%.0f%%", fraction * 100);
    {
      auto bench = BuildBenchDb(config, {"A", "B", "C"}, memory);
      if (!bench.ok()) {
        std::fprintf(stderr, "setup: %s\n", bench.status().ToString().c_str());
        return 1;
      }
      auto report = RunDelete(&*bench, fraction, Strategy::kTraditional);
      if (!report.ok()) {
        std::fprintf(stderr, "run: %s\n", report.status().ToString().c_str());
        return 1;
      }
      table.AddCell(x, "traditional", *report);
    }
    {
      auto bench = BuildBenchDb(config, {"A", "B", "C"}, memory);
      if (!bench.ok()) return 1;
      auto report = RunDelete(&*bench, fraction, Strategy::kDropCreate);
      if (!report.ok()) {
        std::fprintf(stderr, "run: %s\n", report.status().ToString().c_str());
        return 1;
      }
      table.AddCell(x, "drop & create", *report);
    }
  }
  table.Print();
  std::printf(
      "\npaper (Fig. 1, 1M x 512B): traditional 1%%≈13min rising to "
      "15%%≈2h49m;\ndrop & create ≈ flat 35-45 min, overtaking traditional "
      "at ~5%%.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::bench::Run(argc, argv); }
