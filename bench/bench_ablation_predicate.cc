// Ablation for §2.1's "primary ⋉̸ predicate", in two parts.
//
// Part 1 — probe predicate: locating secondary-index entries by key (merge
// with the sorted (key,RID) feed) vs by RID (hash probe over the whole leaf
// level) vs by RID within key ranges (partitioned). Exercises the exec
// primitives the vertical executor composes, directly on one secondary
// index.
//
// Part 2 — statement predicate class: a BETWEEN over 10% of the key space,
// executed as a first-class range plan (leaf-run + extent-drop passes) vs
// the same doomed set expanded into an explicit IN-list (the pre-range
// behavior, handed to the planner as a sorted key list — its best case).
// Clustered key-index-only table at Figure-7 scale. The range plan must
// charge at least 5x fewer simulated page transfers (reads + writes) than
// the expanded plan; the run FAILS below that ratio, so CI holds the line.
//
// With --trace-out, the part-2 "range plan" record carries the ratio as
// extra `ratio` (re-checked by tools/bench_smoke_summary.py).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "exec/hash_delete.h"
#include "exec/partitioned_delete.h"
#include "sort/external_sort.h"
#include "util/stopwatch.h"

namespace bulkdel {
namespace bench {
namespace {

/// Minimum (expanded IN-list cost) / (range plan cost) ratio in simulated
/// page transfers — the acceptance bar for the first-class range path.
constexpr double kMinRangeAdvantage = 5.0;

int Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  size_t memory = config.ScaledMemoryBytes(5.0);
  std::printf("Ablation: primary ⋉̸ predicate on a secondary index\n");

  ResultTable table(config, memory, "Probe predicate on I_B (15% deleted)",
                    "predicate", {"sim minutes", "leaves visited"});
  struct Variant {
    const char* name;
    int kind;  // 0 = by key (merge), 1 = by rid (hash), 2 = partitioned
  };
  const Variant variants[] = {
      {"by key (merge)", 0},
      {"by RID (hash)", 1},
      {"by RID (partitioned)", 2},
  };
  for (const Variant& v : variants) {
    auto bench = BuildBenchDb(config, {"A", "B"}, memory);
    if (!bench.ok()) return 1;
    auto* db = bench->db.get();
    const Workload& w = bench->workload;

    // Build the feed exactly as the table phase would: (B value, RID) of
    // the doomed rows.
    std::vector<int64_t> keys = w.MakeDeleteKeys(0.15, 9);
    U64HashSet doomed_a(keys.size());
    for (int64_t k : keys) doomed_a.Insert(static_cast<uint64_t>(k));
    std::vector<KeyRid> feed;
    for (size_t i = 0; i < w.rids.size(); ++i) {
      if (doomed_a.Contains(static_cast<uint64_t>(w.values[0][i]))) {
        feed.emplace_back(w.values[1][i], w.rids[i]);
      }
    }
    auto* index = db->GetIndex("R", "B");
    db->disk().ResetStats();
    IoStats before = db->disk().stats();
    Stopwatch watch;
    BtreeBulkDeleteStats stats;
    Status s;
    switch (v.kind) {
      case 0:
        s = SortKeyRids(&db->disk(), memory, &feed);
        if (s.ok()) {
          s = index->tree->BulkDeleteSortedEntries(
              feed, ReorgMode::kFreeAtEmpty, &stats);
        }
        break;
      case 1: {
        std::vector<Rid> rids;
        for (const KeyRid& e : feed) rids.push_back(e.rid);
        s = HashDeleteIndexByRids(index->tree.get(), rids,
                                  ReorgMode::kFreeAtEmpty, &stats);
        break;
      }
      default: {
        PartitionedDeleteStats pstats;
        s = PartitionedHashDeleteIndex(index->tree.get(), &db->disk(), memory,
                                       feed, ReorgMode::kFreeAtEmpty,
                                       &pstats);
        stats = pstats.btree;
        break;
      }
    }
    if (!s.ok()) {
      std::fprintf(stderr, "run: %s\n", s.ToString().c_str());
      return 1;
    }
    int64_t wall_micros = watch.ElapsedMicros();
    IoStats io = db->disk().stats() - before;
    std::printf("%-22s deleted=%llu leaves=%llu sim=%.2f min\n", v.name,
                static_cast<unsigned long long>(stats.entries_deleted),
                static_cast<unsigned long long>(stats.leaves_visited),
                static_cast<double>(io.simulated_micros) / 60e6);
    double leaves = static_cast<double>(stats.leaves_visited);
    table.AddCell(
        v.name, "sim minutes", io, wall_micros,
        {{"entries_deleted", static_cast<double>(stats.entries_deleted)},
         {"leaves_visited", leaves}});
    table.AddValue(v.name, "leaves visited", leaves);
  }
  table.Print();
  std::printf(
      "\nexpectation: all predicates visit ~the whole leaf level once; the\n"
      "key probe pays the feed sort, the RID probes skip it — differences\n"
      "stay small, exactly the paper's point that predicate choice is a\n"
      "planner degree of freedom rather than a correctness concern.\n");

  // Part 2: statement predicate class — range plan vs expanded IN-list on a
  // clustered key-index-only table (Figure-7 scale, 10% of the rows, taken
  // as the centered quantile window of the A-population so the doomed set
  // is one contiguous key range).
  std::printf("\nAblation: BETWEEN as a range plan vs expanded IN-list\n");
  constexpr double kFraction = 0.10;
  const char* plans[] = {"range plan", "expanded IN-list"};
  BulkDeleteReport results[2];
  for (int variant = 0; variant < 2; ++variant) {
    auto bench = BuildBenchDb(config, {"A"}, memory, /*clustered_on_a=*/true);
    if (!bench.ok()) {
      std::fprintf(stderr, "setup: %s\n", bench.status().ToString().c_str());
      return 1;
    }
    const Workload& w = bench->workload;
    std::vector<int64_t> sorted_a = w.values[0];
    std::sort(sorted_a.begin(), sorted_a.end());
    size_t n = static_cast<size_t>(kFraction * sorted_a.size());
    if (n == 0) n = 1;
    size_t start = (sorted_a.size() - n) / 2;

    BulkDeleteSpec spec;
    spec.table = w.spec.table_name;
    spec.key_column = "A";
    spec.keys_sorted = true;
    if (variant == 0) {
      spec.predicate = DeletePredicate::kRange;
      spec.range_lo = sorted_a[start];
      spec.range_hi = sorted_a[start + n - 1];
    } else {
      // The same doomed set as an already-sorted point-key list: exactly
      // what expanding the BETWEEN used to hand the planner, at its best.
      spec.keys.assign(sorted_a.begin() + start, sorted_a.begin() + start + n);
    }
    auto report = bench->db->BulkDelete(spec, Strategy::kOptimizer);
    if (!report.ok()) {
      std::fprintf(stderr, "run: %s\n", report.status().ToString().c_str());
      return 1;
    }
    results[variant] = *report;
    std::printf("%-18s deleted=%llu reads=%lld writes=%lld sim=%.2f min\n",
                plans[variant],
                static_cast<unsigned long long>(report->rows_deleted),
                static_cast<long long>(report->io.reads),
                static_cast<long long>(report->io.writes),
                static_cast<double>(report->io.simulated_micros) / 60e6);
  }
  if (results[0].rows_deleted != results[1].rows_deleted) {
    std::fprintf(stderr,
                 "FAIL: range plan deleted %llu rows, expanded IN-list "
                 "deleted %llu — the plans disagree on the doomed set\n",
                 static_cast<unsigned long long>(results[0].rows_deleted),
                 static_cast<unsigned long long>(results[1].rows_deleted));
    return 1;
  }
  int64_t range_cost = results[0].io.reads + results[0].io.writes;
  int64_t expanded_cost = results[1].io.reads + results[1].io.writes;
  double ratio = range_cost == 0
                     ? 0.0
                     : static_cast<double>(expanded_cost) /
                           static_cast<double>(range_cost);
  std::printf(
      "\nrange plan: %lld page transfers; expanded IN-list: %lld "
      "(%.1fx)\n",
      static_cast<long long>(range_cost),
      static_cast<long long>(expanded_cost), ratio);
  if (range_cost == 0 || ratio < kMinRangeAdvantage) {
    std::fprintf(stderr,
                 "FAIL: range plan must charge at least %.0fx fewer "
                 "simulated transfers than the expanded IN-list plan "
                 "(got %.1fx)\n",
                 kMinRangeAdvantage, ratio);
    return 1;
  }
  for (int variant = 0; variant < 2; ++variant) {
    BenchRecord record;
    record.series = plans[variant];
    record.x = "10% BETWEEN";
    record.memory_bytes = memory;
    record.report = &results[variant];
    if (variant == 0) record.extra = {{"ratio", ratio}};
    WriteRecord(config, record);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::bench::Run(argc, argv); }
