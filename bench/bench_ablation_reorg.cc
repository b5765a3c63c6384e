// Ablation for §2.3 (reorganization): free-at-empty vs full leaf compaction
// with inner rebuild. Measures (a) the
// bulk delete itself and (b) the cost of a full index scan afterwards — the
// payoff of compaction is a denser leaf level for later readers.

#include <cstdio>

#include "bench/bench_common.h"
#include "util/stopwatch.h"

namespace bulkdel {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  size_t memory = config.ScaledMemoryBytes(5.0);
  std::printf("Ablation: reorganization modes, 1 index, 60%% deleted\n");

  struct ModeDef {
    const char* name;
    ReorgMode mode;
  };
  const ModeDef modes[] = {
      {"free-at-empty", ReorgMode::kFreeAtEmpty},
      {"compact+rebuild", ReorgMode::kCompactAndRebuild},
  };

  ResultTable table(config, memory, "Reorganization modes, 60% bulk delete",
                    "metric",
                    {"free-at-empty", "compact+rebuild"});
  std::printf("%-18s %14s %14s %14s %14s\n", "mode", "delete(min)",
              "scan-after(min)", "leaves", "height");
  for (const ModeDef& m : modes) {
    DatabaseOptions options;
    options.memory_budget_bytes = memory;
    options.reorg = m.mode;
    auto db = *Database::Create(options);
    WorkloadSpec spec;
    spec.n_tuples = config.n_tuples;
    spec.n_int_columns = config.n_int_columns;
    spec.tuple_size = config.tuple_size;
    spec.seed = config.seed;
    auto workload = SetUpPaperDatabase(db.get(), spec, {"A"});
    if (!workload.ok()) return 1;
    db->disk().ResetStats();

    BulkDeleteSpec bd;
    bd.table = "R";
    bd.key_column = "A";
    bd.keys = workload->MakeDeleteKeys(0.6, 3);
    auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
    if (!report.ok()) {
      std::fprintf(stderr, "run: %s\n", report.status().ToString().c_str());
      return 1;
    }
    double delete_min = report->simulated_minutes();

    // Post-delete full scan cost from a cold cache.
    auto* index = db->GetIndex("R", "A");
    (void)db->pool().Reset();
    IoStats before = db->disk().stats();
    Stopwatch scan_watch;
    uint64_t n = 0;
    Status s = index->tree->ScanAll([&](int64_t, const Rid&, uint16_t) {
      ++n;
      return Status::OK();
    });
    if (!s.ok()) return 1;
    int64_t scan_wall_micros = scan_watch.ElapsedMicros();
    IoStats scan = db->disk().stats() - before;
    double scan_min = static_cast<double>(scan.simulated_micros) / 60e6;

    std::printf("%-18s %14.2f %14.3f %14u %14d\n", m.name, delete_min,
                scan_min, index->tree->num_leaves(), index->tree->height());
    table.AddCell("delete", m.name, *report);
    table.AddCell("scan-after", m.name, scan, scan_wall_micros,
                  {{"leaves", static_cast<double>(index->tree->num_leaves())},
                   {"height", static_cast<double>(index->tree->height())}});
  }
  table.Print();
  std::printf(
      "\nexpectation: compaction costs extra during the delete but shrinks "
      "the\nleaf level by the deleted fraction (~60%% fewer leaves: the "
      "index is\nbulk-loaded full, and the survivors repack into ~40%% of "
      "the leaves),\nmaking the post-delete scan cheaper; free-at-empty "
      "leaves sparse pages\nin place (the paper's experimental setting — "
      "with uniformly random\ndeletes almost no page empties).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::bench::Run(argc, argv); }
