// Ablation for §3.1: side-file vs direct propagation. Measures updater
// throughput achieved while a bulk delete processes off-line indices, and
// the bulk delete's wall time, for both protocols (plus the exclusive
// baseline). Wall-clock based (threads), so run on an otherwise idle
// machine for stable numbers.
//
// Extra flags (on top of the common bench flags):
//   --updaters=N       concurrent updater threads per protocol (default 1)
//
// With no updaters running, the protocol machinery must be free: the run
// also executes every protocol with zero updaters and checks the simulated
// bulk-delete I/O is bit-identical to the exclusive baseline.

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace bulkdel {
namespace bench {
namespace {

struct ProtocolDef {
  const char* name;  ///< human label
  const char* key;   ///< record series
  ConcurrencyProtocol protocol;
};

constexpr ProtocolDef kProtocols[] = {
    {"exclusive (none)", "none", ConcurrencyProtocol::kNone},
    {"side-file", "sidefile", ConcurrencyProtocol::kSideFile},
    {"direct propagation", "direct", ConcurrencyProtocol::kDirectPropagation},
};

struct ProtocolResult {
  BulkDeleteReport report;
  double wall_ms = 0;
  uint64_t updater_ops = 0;
  double updater_ops_per_sec = 0;
  /// WAL activity across the whole run (zero unless the recovery log is on):
  /// Sync() calls made vs. physical flush batches performed. Group commit's
  /// whole point is fsyncs << syncs under concurrent committers.
  uint64_t wal_syncs = 0;
  uint64_t wal_fsyncs = 0;
  /// Log syncs the buffer pool forced before writing pages back (the WAL
  /// rule, bp.wal_forced_writebacks); they count in wal_syncs too.
  uint64_t wal_forced_writebacks = 0;

  /// The syncs neither an updater's ack (one per acknowledged op) nor the
  /// pool forced: the statement's own (its envelope, barriers, commit, End).
  uint64_t StatementSyncs() const {
    uint64_t other = updater_ops + wal_forced_writebacks;
    return wal_syncs > other ? wal_syncs - other : 0;
  }
};

/// Durability knobs for the group-commit ablation; defaults reproduce the
/// classic protocol comparison (sim backend, no recovery log).
struct DurabilityOpts {
  std::string path;           ///< non-empty = file backend rooted here
  bool recovery_log = false;  ///< WAL on: every updater ack syncs it
  bool group_commit = true;
};

/// One bulk delete under `protocol` with `n_updaters` insert threads
/// hammering the table for its whole duration.
Result<ProtocolResult> RunProtocol(const BenchConfig& config,
                                   ConcurrencyProtocol protocol,
                                   int n_updaters,
                                   const DurabilityOpts& durability = {}) {
  DatabaseOptions options;
  options.memory_budget_bytes = config.ScaledMemoryBytes(5.0);
  options.concurrency = protocol;
  options.bulk_chunk_entries = 128;
  options.path = durability.path;
  options.enable_recovery_log = durability.recovery_log;
  options.wal_group_commit = durability.group_commit;
  BULKDEL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           Database::Create(options));
  WorkloadSpec spec;
  spec.n_tuples = config.n_tuples;
  spec.n_int_columns = 3;
  spec.tuple_size = config.tuple_size;
  spec.seed = config.seed;
  BULKDEL_ASSIGN_OR_RETURN(Workload workload,
                           SetUpPaperDatabase(db.get(), spec, {"A", "B", "C"}));

  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(0.3, 11);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ops{0};
  std::vector<std::thread> updaters;
  if (protocol != ConcurrencyProtocol::kNone) {
    for (int u = 0; u < n_updaters; ++u) {
      updaters.emplace_back([&, u] {
        // Disjoint key ranges per thread; inserts only, so tuple counts stay
        // comparable across protocols.
        int64_t next = 30000000000LL + u * 1000000000LL;
        while (!stop.load()) {
          if (db->InsertRow("R", {next, next + 1, next + 2}).ok()) {
            ++ops;
          }
          ++next;
        }
      });
    }
  }
  Stopwatch watch;
  auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
  double wall_ms = static_cast<double>(watch.ElapsedMicros()) / 1000.0;
  stop = true;
  for (std::thread& t : updaters) t.join();
  BULKDEL_RETURN_IF_ERROR(report.status());
  BULKDEL_RETURN_IF_ERROR(db->VerifyIntegrity());

  ProtocolResult result;
  result.report = *report;
  result.wall_ms = wall_ms;
  result.updater_ops = ops.load();
  result.updater_ops_per_sec =
      wall_ms > 0 ? static_cast<double>(result.updater_ops) / wall_ms * 1000.0
                  : 0;
  result.wal_syncs = static_cast<uint64_t>(
      db->metrics().counter(obs::metric_names::kWalSyncs)->value());
  result.wal_fsyncs = static_cast<uint64_t>(
      db->metrics().counter(obs::metric_names::kWalFsyncs)->value());
  result.wal_forced_writebacks = static_cast<uint64_t>(
      db->metrics()
          .counter(obs::metric_names::kBpWalForcedWritebacks)
          ->value());
  return result;
}

int Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  int n_updaters = 1;
  std::string gc_dir = config.db_dir + "/ablation_gc";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--updaters=", 11) == 0) {
      n_updaters = std::atoi(argv[i] + 11);
      if (n_updaters < 1) n_updaters = 1;
    }
  }
  // Keep this one modest: it is wall-clock bound.
  if (config.n_tuples > 20000) config.n_tuples = 20000;
  std::printf(
      "Ablation: concurrency protocols (wall-clock, %llu tuples, "
      "%d updater thread%s)\n",
      static_cast<unsigned long long>(config.n_tuples), n_updaters,
      n_updaters == 1 ? "" : "s");

  // With no updaters, every protocol must cost nothing: identical simulated
  // bulk-delete I/O (the §3.1 machinery only acts when DML actually
  // arrives while an index is off-line).
  IoStats baseline;
  for (const ProtocolDef& p : kProtocols) {
    auto quiet = RunProtocol(config, p.protocol, 0);
    if (!quiet.ok()) {
      std::fprintf(stderr, "%s (quiet): %s\n", p.name,
                   quiet.status().ToString().c_str());
      return 1;
    }
    const IoStats& io = quiet->report.io;
    if (p.protocol == ConcurrencyProtocol::kNone) {
      baseline = io;
    } else if (io.simulated_micros != baseline.simulated_micros ||
               io.reads != baseline.reads || io.writes != baseline.writes) {
      std::fprintf(stderr,
                   "I/O identity violated: %s with no updaters simulated "
                   "%lld us (%lld r / %lld w) vs baseline %lld us "
                   "(%lld r / %lld w)\n",
                   p.name, static_cast<long long>(io.simulated_micros),
                   static_cast<long long>(io.reads),
                   static_cast<long long>(io.writes),
                   static_cast<long long>(baseline.simulated_micros),
                   static_cast<long long>(baseline.reads),
                   static_cast<long long>(baseline.writes));
      return 1;
    }
  }
  std::printf("quiet-run I/O identity: all protocols simulate %llu us\n",
              static_cast<unsigned long long>(baseline.simulated_micros));

  std::printf("%-22s %16s %14s %16s\n", "protocol", "delete wall(ms)",
              "updater ops", "updater ops/s");
  size_t memory = config.ScaledMemoryBytes(5.0);
  auto record = [&](const char* series, int updaters,
                    const ProtocolResult& result,
                    std::vector<std::pair<std::string, double>> extra) {
    BenchRecord r;
    r.series = series;
    r.x = std::to_string(updaters) + " updaters";
    r.memory_bytes = memory;
    r.report = &result.report;
    r.extra = std::move(extra);
    WriteRecord(config, r);
  };
  for (const ProtocolDef& p : kProtocols) {
    auto result = RunProtocol(config, p.protocol, n_updaters);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", p.name,
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-22s %16.1f %14llu %16.0f\n", p.name, result->wall_ms,
                static_cast<unsigned long long>(result->updater_ops),
                result->updater_ops_per_sec);
    record(p.key, n_updaters, *result,
           {{"updater_ops", static_cast<double>(result->updater_ops)},
            {"updater_ops_per_sec", result->updater_ops_per_sec}});
  }

  // WAL group-commit ablation: the same side-file run, file-backed with the
  // recovery log on, so every acknowledged updater op pays a WAL sync before
  // returning OK. With group commit, concurrent committers coalesce onto one
  // leader fsync per batch — physical fsyncs land well below acknowledged
  // ops. Without it, every Sync() does its own flush + fsync.
  int gc_updaters = n_updaters < 2 ? 2 : n_updaters;
  ::mkdir(config.db_dir.c_str(), 0755);
  ::mkdir(gc_dir.c_str(), 0755);
  std::printf(
      "\nWAL group-commit ablation (file-backed under %s, side-file "
      "protocol, %d updaters)\n",
      gc_dir.c_str(), gc_updaters);
  std::printf("%-14s %16s %12s %12s %12s %12s %12s\n", "group commit",
              "delete wall(ms)", "acked ops", "wal syncs", "wal fsyncs",
              "pool forced", "stmt syncs");
  uint64_t fsyncs_on = 0, ops_on = 0;
  for (bool group_commit : {true, false}) {
    DurabilityOpts durability;
    durability.path = gc_dir + (group_commit ? "/gc_on" : "/gc_off");
    durability.recovery_log = true;
    durability.group_commit = group_commit;
    auto result = RunProtocol(config, ConcurrencyProtocol::kSideFile,
                              gc_updaters, durability);
    if (!result.ok()) {
      std::fprintf(stderr, "group-commit %s: %s\n",
                   group_commit ? "on" : "off",
                   result.status().ToString().c_str());
      return 1;
    }
    if (group_commit) {
      fsyncs_on = result->wal_fsyncs;
      ops_on = result->updater_ops;
    }
    std::printf("%-14s %16.1f %12llu %12llu %12llu %12llu %12llu\n",
                group_commit ? "on" : "off", result->wall_ms,
                static_cast<unsigned long long>(result->updater_ops),
                static_cast<unsigned long long>(result->wal_syncs),
                static_cast<unsigned long long>(result->wal_fsyncs),
                static_cast<unsigned long long>(result->wal_forced_writebacks),
                static_cast<unsigned long long>(result->StatementSyncs()));
    record(group_commit ? "group commit on" : "group commit off", gc_updaters,
           *result,
           {{"acked_ops", static_cast<double>(result->updater_ops)},
            {"wal_syncs", static_cast<double>(result->wal_syncs)},
            {"wal_fsyncs", static_cast<double>(result->wal_fsyncs)},
            {"pool_forced",
             static_cast<double>(result->wal_forced_writebacks)},
            {"stmt_syncs", static_cast<double>(result->StatementSyncs())}});
  }
  if (ops_on > 0 && fsyncs_on >= ops_on) {
    std::fprintf(stderr,
                 "group commit failed to coalesce: %llu fsyncs for %llu "
                 "acknowledged ops\n",
                 static_cast<unsigned long long>(fsyncs_on),
                 static_cast<unsigned long long>(ops_on));
    return 1;
  }

  std::printf(
      "\nexpectation: both on-line protocols sustain updater traffic during "
      "the\nbulk delete (the exclusive baseline allows none); direct "
      "propagation\nadmits updates into the off-line index at latch "
      "granularity, the\nside-file defers them and replays at the end.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::bench::Run(argc, argv); }
