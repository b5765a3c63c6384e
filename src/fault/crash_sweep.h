#ifndef BULKDEL_FAULT_CRASH_SWEEP_H_
#define BULKDEL_FAULT_CRASH_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"
#include "fault/fault_injector.h"
#include "plan/plan.h"
#include "util/result.h"
#include "util/status.h"

namespace bulkdel {

/// RID-free logical content digest of one table: a stable hash over the
/// sorted multiset of row column values plus, per index, the sorted multiset
/// of (key, entry-flag) pairs. Unlike the crash sweep's internal digest this
/// deliberately excludes RIDs, so two histories that insert the same rows in
/// different physical orders (e.g. N concurrent connections vs a serial
/// replay of the same acknowledged statements) compare equal exactly when
/// their visible contents match. Pair with Database::VerifyIntegrity(),
/// which separately checks that every index entry resolves to its heap row.
/// Callers must quiesce DML first; the scan takes no locks.
Result<std::string> LogicalContentHash(Database* db,
                                       const std::string& table_name);

/// Configuration of one crash-recovery sweep (see docs/FAULTS.md).
///
/// A sweep fixes a scenario — the paper's single table, or the cascade —
/// and captures its reference states once: the statement-prefix states
/// S0..S(L-1) (S0 the untouched load; L = 1 for the single table, 3 for the
/// cascade's flattened legs) and final[k], the completed statement plus the
/// first k acknowledged updater ops. Then, for each (strategy, exec_threads)
/// pair, it
///   1. runs the bulk delete once uninjected to learn the per-site
///      fault-occurrence counts (its end state must equal final[all]),
///   2. for every known site and a sample of its occurrences, re-runs the
///      statement from a fresh database with a crash armed at
///      (site, occurrence), simulates the crash, recovers, and
///   3. asserts the recovered state is final[acked], or final[acked + 1]
///      when one unacknowledged updater op was attempted, or — only when
///      acked == 0 — one of the prefixes S0..S(L-1) (a leg whose delete list
///      never became durable atomically never happened).
struct SweepConfig {
  // Workload shape. Small by default: the sweep multiplies every occurrence
  // by a full load + delete + recovery cycle.
  uint64_t n_tuples = 1200;
  int n_int_columns = 3;
  uint32_t tuple_size = 64;
  double delete_fraction = 0.25;
  /// Small on purpose: forces buffer-pool evictions and disk reads during
  /// the delete so `pool.evict` / `disk.read` sites actually fire.
  size_t memory_budget_bytes = 128u << 10;
  uint64_t workload_seed = 20010407;
  uint64_t delete_keys_seed = 7;
  /// Predicate class of the swept statement: "keys" (the paper's IN-list,
  /// the default) or "range" (BETWEEN [lo, hi] with the bounds chosen as a
  /// centered quantile window of the A-population covering
  /// `delete_fraction` of the rows — exercising the leaf-run / extent-drop
  /// WAL records and their fault sites).
  std::string predicate = "keys";
  /// Seeds the injector's partial-write RNG (torn log tails).
  uint64_t injector_seed = 1;

  /// Sweep a multi-table CASCADE statement instead of the single-table
  /// workload: a deterministic USERS -> ORDERS -> EVENTS schema with
  /// cascading FKs, deleting `delete_fraction` of the users. The cascade
  /// executes as flattened per-table legs (EVENTS, then ORDERS, then the
  /// USERS parent), each its own WAL statement, so the acceptable recovered
  /// states are exactly the leg prefixes S0..S2 and the fully-forgotten
  /// final state, each checked across all three tables. Ignores `predicate`
  /// and requires `concurrency == kNone`.
  bool cascade = false;

  /// Durability backend under test: "sim" (in-memory pages + WAL image, the
  /// default) or "file" (real page file + WAL under `scratch_dir`, crashes
  /// simulated by discarding all process state and reopening from disk).
  /// Same sweep, same digests — only the medium changes.
  std::string backend = "sim";
  /// Directory for the file backend's page/WAL files. Reused across cases
  /// (cases run one at a time and Create() truncates); put it on tmpfs for
  /// speed.
  std::string scratch_dir = "/tmp/bulkdel_crashsweep";

  std::vector<Strategy> strategies = {Strategy::kVerticalSortMerge,
                                      Strategy::kVerticalHash,
                                      Strategy::kVerticalPartitionedHash};
  std::vector<int> thread_counts = {1, 4};

  /// §3.1 concurrent-updater coverage. With a protocol selected, a
  /// deterministic updater runs `updater_ops` DML statements (inserts plus
  /// deletes of its own rows) at the start of the first post-commit
  /// secondary-index phase — while that index is off-line — and the
  /// acceptance check requires the recovered state to equal the uncrashed
  /// reference *including* every acknowledged updater op. A tiny side-file
  /// spill threshold is used so kSideFile cases exercise the spill path.
  ConcurrencyProtocol concurrency = ConcurrencyProtocol::kNone;
  int updater_ops = 6;

  /// Max occurrences tested per site (evenly spaced, always including the
  /// first and the last). 0 = exhaustive — every single occurrence.
  uint64_t occurrences_per_site = 6;

  /// Also sweep `log.sync` in torn-write mode (a random prefix of the batch
  /// becomes durable plus one half-written record recovery must discard).
  bool include_torn_log_sync = true;

  /// Restrict the sweep to one site / one occurrence / one mode (repro
  /// mode; empty/0 = no restriction). `only_mode` is "crash" or "torn".
  std::string only_site;
  uint64_t only_occurrence = 0;
  std::string only_mode;

  /// Print one line per case to stdout.
  bool verbose = false;
};

/// Outcome counters plus a human-readable report per failed case. Each
/// report names the exact (strategy, threads, site, occurrence, mode, seeds)
/// and the bulkdel_crashsweep command line that reproduces it.
struct SweepStats {
  uint64_t cases_run = 0;
  /// Armed occurrences that were never reached. Impossible for serial runs
  /// (counted as failures there); legal under exec_threads > 1 where the
  /// interleaving can shift per-site counts between runs.
  uint64_t cases_unreached = 0;
  uint64_t failures = 0;
  std::vector<std::string> failure_reports;

  std::string Summary() const;
};

/// Runs the deterministic sweep. Returns non-OK iff the harness itself
/// breaks (e.g. the uninjected reference run fails); injected-case failures
/// are reported through `stats`.
Status RunCrashSweep(const SweepConfig& config, SweepStats* stats);

/// Time-bounded randomized variant: repeatedly picks a random
/// (strategy, threads, site, occurrence) — seeded, so a failing pick is
/// reproducible from the reported case — until `seconds` elapse.
Status RunTortureSweep(const SweepConfig& config, int seconds, uint64_t seed,
                       SweepStats* stats);

}  // namespace bulkdel

#endif  // BULKDEL_FAULT_CRASH_SWEEP_H_
