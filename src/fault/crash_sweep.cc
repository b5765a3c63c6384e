#include "fault/crash_sweep.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <utility>

#include <unistd.h>

#include "core/database.h"
#include "workload/generator.h"

namespace bulkdel {

namespace {

/// FNV-1a over a stream of int64 words.
struct Fnv64 {
  uint64_t h = 1469598103934665603ull;
  void Mix(int64_t v) {
    uint64_t u = static_cast<uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

}  // namespace

Result<std::string> LogicalContentHash(Database* db,
                                       const std::string& table_name) {
  TableDef* table = db->GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("content hash: no table " + table_name);
  }
  const Schema& schema = *table->schema;
  std::vector<std::vector<int64_t>> rows;
  BULKDEL_RETURN_IF_ERROR(
      table->table->Scan([&](const Rid& rid, const char* tuple) {
        (void)rid;  // deliberately excluded — see header comment
        std::vector<int64_t> row;
        row.reserve(schema.num_columns());
        for (size_t c = 0; c < schema.num_columns(); ++c) {
          row.push_back(schema.GetInt(tuple, c));
        }
        rows.push_back(std::move(row));
        return Status::OK();
      }));
  std::sort(rows.begin(), rows.end());
  Fnv64 fnv;
  for (const auto& row : rows) {
    for (int64_t v : row) fnv.Mix(v);
    fnv.Mix(static_cast<int64_t>(0x517cc1b727220a95ull));  // row separator
  }
  std::string digest = "rows=" + std::to_string(rows.size()) + " hash=" +
                       std::to_string(fnv.h);
  for (const auto& index : table->indices) {
    std::vector<std::pair<int64_t, uint16_t>> entries;
    BULKDEL_RETURN_IF_ERROR(index->tree->ScanAll(
        [&](int64_t key, const Rid& rid, uint16_t flags) {
          (void)rid;
          entries.emplace_back(key, flags);
          return Status::OK();
        }));
    std::sort(entries.begin(), entries.end());
    Fnv64 idx;
    for (const auto& [key, flags] : entries) {
      idx.Mix(key);
      idx.Mix(static_cast<int64_t>(flags));
    }
    digest += "; " + index->name + ": n=" + std::to_string(entries.size()) +
              " hash=" + std::to_string(idx.h);
  }
  return digest;
}

namespace {

/// Logical content of one table: every live row (rid + column values) and
/// every index's (key, rid) entry set. Two runs that end in the same logical
/// state produce identical digests regardless of physical node layout.
struct StateDigest {
  std::string table;
  /// Each entry: [rid.Pack(), col0, col1, ...]; sorted.
  std::vector<std::vector<int64_t>> rows;
  /// index name -> sorted (key, packed rid, entry flags) tuples. Flags are
  /// part of the digest so a stale kEntryUndeletable marker (the §3.1.2
  /// flip-before-cleanup crash window) is a detected divergence, not noise.
  std::vector<std::pair<std::string,
                        std::vector<std::tuple<int64_t, uint64_t, uint16_t>>>>
      indices;

  bool operator==(const StateDigest&) const = default;
};

/// A case's logical state: one digest per table of the swept scenario.
using CaseState = std::vector<StateDigest>;

Status CaptureDigest(Database* db, const std::string& table_name,
                     StateDigest* out) {
  TableDef* table = db->GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("digest: no table " + table_name);
  }
  out->table = table_name;
  const Schema& schema = *table->schema;
  BULKDEL_RETURN_IF_ERROR(
      table->table->Scan([&](const Rid& rid, const char* tuple) {
        std::vector<int64_t> row;
        row.reserve(schema.num_columns() + 1);
        row.push_back(static_cast<int64_t>(rid.Pack()));
        for (size_t c = 0; c < schema.num_columns(); ++c) {
          row.push_back(schema.GetInt(tuple, c));
        }
        out->rows.push_back(std::move(row));
        return Status::OK();
      }));
  std::sort(out->rows.begin(), out->rows.end());
  for (const auto& index : table->indices) {
    std::vector<std::tuple<int64_t, uint64_t, uint16_t>> entries;
    BULKDEL_RETURN_IF_ERROR(index->tree->ScanAll(
        [&](int64_t key, const Rid& rid, uint16_t flags) {
          entries.emplace_back(key, rid.Pack(), flags);
          return Status::OK();
        }));
    std::sort(entries.begin(), entries.end());
    out->indices.emplace_back(index->name, std::move(entries));
  }
  return Status::OK();
}

Status CaptureState(Database* db, const std::vector<std::string>& tables,
                    CaseState* out) {
  out->assign(tables.size(), StateDigest{});
  for (size_t i = 0; i < tables.size(); ++i) {
    BULKDEL_RETURN_IF_ERROR(CaptureDigest(db, tables[i], &(*out)[i]));
  }
  return Status::OK();
}

/// Human-readable first difference, for failure reports.
std::string DescribeDiff(const StateDigest& ref, const StateDigest& got) {
  if (ref.rows.size() != got.rows.size()) {
    return "row count " + std::to_string(got.rows.size()) + " != reference " +
           std::to_string(ref.rows.size());
  }
  for (size_t i = 0; i < ref.rows.size(); ++i) {
    if (ref.rows[i] != got.rows[i]) {
      return "row #" + std::to_string(i) + " differs (rid " +
             std::to_string(got.rows[i].empty() ? -1 : got.rows[i][0]) + ")";
    }
  }
  if (ref.indices.size() != got.indices.size()) {
    return "index count differs";
  }
  for (size_t i = 0; i < ref.indices.size(); ++i) {
    if (ref.indices[i].first != got.indices[i].first) {
      return "index name mismatch at #" + std::to_string(i);
    }
    if (ref.indices[i].second != got.indices[i].second) {
      return "index " + ref.indices[i].first + " entries differ (" +
             std::to_string(got.indices[i].second.size()) + " vs reference " +
             std::to_string(ref.indices[i].second.size()) + ")";
    }
  }
  return "digests equal";
}

std::string DescribeDiff(const CaseState& ref, const CaseState& got) {
  for (size_t i = 0; i < ref.size() && i < got.size(); ++i) {
    if (ref[i] != got[i]) {
      return ref[i].table + ": " + DescribeDiff(ref[i], got[i]);
    }
  }
  return "digests equal";
}

/// Deterministic §3.1 concurrent-updater workload: `total_ops` DML
/// statements (two inserts, then a delete of the second, repeating) fired
/// once, at the begin hook of the first post-commit secondary phase to run —
/// i.e. while non-unique indices are off-line and the table lock is free.
/// Sequential and seed-free, so run k produces the same rows (and, because
/// the heap state at the hook point is deterministic, the same RIDs) as the
/// first k ops of any other run over the same workload.
struct UpdaterDriver {
  Database* db = nullptr;
  std::string table;
  std::set<std::string> trigger_labels;
  int total_ops = 0;
  std::atomic<bool> fired{false};
  /// Ops attempted / acknowledged (returned OK). The driver stops at the
  /// first failure, so at most one op (attempted == succeeded + 1) is
  /// ambiguous: it may or may not have become durable before the crash.
  std::atomic<int> attempted{0};
  std::atomic<int> succeeded{0};

  void MaybeRun(const std::string& phase) {
    if (trigger_labels.count(phase) == 0) return;
    if (fired.exchange(true)) return;  // one-shot (recovery re-runs phases)
    Rid last_rid;
    bool have_last = false;
    for (int i = 0; i < total_ops; ++i) {
      attempted.store(i + 1);
      Status s;
      if (i % 3 == 2 && have_last) {
        s = db->DeleteRow(table, last_rid);
        have_last = false;
      } else {
        int64_t base = 30000000000LL + static_cast<int64_t>(i) * 10;
        auto rid = db->InsertRow(table, {base, base + 1, base + 2});
        s = rid.status();
        if (s.ok()) {
          last_rid = rid.value();
          have_last = true;
        }
      }
      if (!s.ok()) return;
      succeeded.store(i + 1);
    }
  }
};

/// One prepared, checkpointed database ready to run the sweep's statement.
struct CaseSetup {
  std::unique_ptr<Database> db;
  std::shared_ptr<FaultInjector> injector;
  std::shared_ptr<UpdaterDriver> updater;
  /// The tables a case's state is digested over.
  std::vector<std::string> tables;
  /// The swept statement.
  BulkDeleteSpec spec;
};

BulkDeleteSpec SortedKeysSpec(const std::string& table,
                              const std::string& column,
                              std::vector<int64_t> keys) {
  BulkDeleteSpec spec;
  spec.table = table;
  spec.key_column = column;
  spec.keys = std::move(keys);
  spec.keys_sorted = true;
  return spec;
}

/// The paper's workload: table R with every int column indexed; the swept
/// statement deletes `delete_fraction` of it by an IN-list or a BETWEEN on A.
Status LoadPaperScenario(const SweepConfig& config, CaseSetup* out) {
  WorkloadSpec spec;
  spec.n_tuples = config.n_tuples;
  spec.n_int_columns = config.n_int_columns;
  spec.tuple_size = config.tuple_size;
  spec.seed = config.workload_seed;
  std::vector<std::string> indexed_columns;
  for (int c = 0; c < config.n_int_columns; ++c) {
    indexed_columns.push_back(std::string(1, static_cast<char>('A' + c)));
  }
  auto workload = SetUpPaperDatabase(out->db.get(), spec, indexed_columns);
  BULKDEL_RETURN_IF_ERROR(workload.status());
  BULKDEL_RETURN_IF_ERROR(out->db->Checkpoint());

  BulkDeleteSpec del;
  del.table = spec.table_name;
  del.key_column = "A";
  if (config.predicate == "range") {
    // Centered quantile window of the duplicate-free A-population covering
    // delete_fraction of the rows: deterministic for a given workload seed,
    // and guaranteed to doom exactly `n` rows.
    std::vector<int64_t> sorted = workload.value().values[0];
    std::sort(sorted.begin(), sorted.end());
    size_t n = static_cast<size_t>(
        config.delete_fraction * static_cast<double>(config.n_tuples));
    if (n == 0) n = 1;
    if (n > sorted.size()) n = sorted.size();
    size_t start = (sorted.size() - n) / 2;
    del.predicate = DeletePredicate::kRange;
    del.range_lo = sorted[start];
    del.range_hi = sorted[start + n - 1];
    del.keys_sorted = true;
  } else if (config.predicate == "keys") {
    del.keys = workload.value().MakeDeleteKeys(config.delete_fraction,
                                               config.delete_keys_seed);
  } else {
    return Status::InvalidArgument("unknown sweep predicate: " +
                                   config.predicate);
  }
  out->tables = {spec.table_name};
  out->spec = std::move(del);
  return Status::OK();
}

/// The "forget user X" scenario (config.cascade): a deterministic
/// three-level schema — user u owns orders {2u, 2u+1}, order o owns events
/// {2o, 2o+1} — with cascading FKs. The swept statement deletes every
/// stride-th user; the engine runs it as one WAL envelope with three legs:
/// EVENTS, ORDERS and the USERS parent.
Status LoadCascadeScenario(const SweepConfig& config, CaseSetup* out) {
  Database* db = out->db.get();
  out->tables = {"USERS", "ORDERS", "EVENTS"};
  // u + 2u + 4u rows total: size the user population from n_tuples.
  int64_t n_users = static_cast<int64_t>(config.n_tuples / 7);
  if (n_users < 8) n_users = 8;
  Schema schema = *Schema::PaperStyle(3, config.tuple_size);
  for (const std::string& table : out->tables) {
    BULKDEL_RETURN_IF_ERROR(db->CreateTable(table, schema).status());
    BULKDEL_RETURN_IF_ERROR(
        db->CreateIndex(table, "A", {.unique = true}).status());
  }
  BULKDEL_RETURN_IF_ERROR(db->CreateIndex("ORDERS", "B").status());
  BULKDEL_RETURN_IF_ERROR(db->CreateIndex("EVENTS", "B").status());
  for (int64_t u = 0; u < n_users; ++u) {
    BULKDEL_RETURN_IF_ERROR(
        db->InsertRow("USERS", {u, u * 3 + 1, u * 7}).status());
    for (int64_t o = 2 * u; o < 2 * u + 2; ++o) {
      BULKDEL_RETURN_IF_ERROR(db->InsertRow("ORDERS", {o, u, o * 5}).status());
      for (int64_t e = 2 * o; e < 2 * o + 2; ++e) {
        BULKDEL_RETURN_IF_ERROR(
            db->InsertRow("EVENTS", {e, o, e * 11}).status());
      }
    }
  }
  BULKDEL_RETURN_IF_ERROR(
      db->AddForeignKey("ORDERS", "B", "USERS", "A", FkAction::kCascade));
  BULKDEL_RETURN_IF_ERROR(
      db->AddForeignKey("EVENTS", "B", "ORDERS", "A", FkAction::kCascade));
  BULKDEL_RETURN_IF_ERROR(db->Checkpoint());

  int64_t stride = config.delete_fraction > 0
                       ? static_cast<int64_t>(1.0 / config.delete_fraction)
                       : n_users;
  if (stride < 1) stride = 1;
  std::vector<int64_t> users;
  for (int64_t u = 0; u < n_users; u += stride) users.push_back(u);
  out->spec = SortedKeysSpec("USERS", "A", std::move(users));
  return Status::OK();
}

/// `updater_ops_cap` < 0 runs the configured number of updater ops;
/// 0..N caps them (used to capture the per-k reference states).
Status PrepareCase(const SweepConfig& config, int threads, bool with_injector,
                   int updater_ops_cap, CaseSetup* out) {
  if (config.cascade && config.concurrency != ConcurrencyProtocol::kNone) {
    return Status::InvalidArgument(
        "cascade sweep does not take a concurrent updater");
  }
  DatabaseOptions options;
  options.memory_budget_bytes = config.memory_budget_bytes;
  options.enable_recovery_log = true;
  options.exec_threads = threads;
  options.concurrency = config.concurrency;
  if (config.backend == "file") {
    // One scratch directory serves every case: cases run strictly one at a
    // time and Database::Create truncates both files.
    options.path = config.scratch_dir;
  } else if (config.backend != "sim") {
    return Status::InvalidArgument("unknown sweep backend: " + config.backend);
  }
  if (config.concurrency == ConcurrencyProtocol::kSideFile) {
    // Tiny threshold: a handful of updater ops is enough to exercise the
    // spill-to-scratch-pages path under injected faults.
    options.side_file_spill_ops = 4;
  }
  if (with_injector) {
    out->injector = std::make_shared<FaultInjector>(config.injector_seed);
    options.fault_injector = out->injector;
  }
  int updater_ops = updater_ops_cap < 0 ? config.updater_ops : updater_ops_cap;
  if (config.concurrency != ConcurrencyProtocol::kNone && updater_ops > 0) {
    out->updater = std::make_shared<UpdaterDriver>();
    out->updater->total_ops = updater_ops;
    std::shared_ptr<UpdaterDriver> updater = out->updater;
    options.phase_begin_hook = [updater](const std::string& phase) {
      updater->MaybeRun(phase);
    };
  }
  auto db = Database::Create(options);
  BULKDEL_RETURN_IF_ERROR(db.status());
  out->db = std::move(db).TakeValue();
  BULKDEL_RETURN_IF_ERROR(config.cascade ? LoadCascadeScenario(config, out)
                                         : LoadPaperScenario(config, out));

  if (out->updater != nullptr) {
    out->updater->db = out->db.get();
    out->updater->table = out->spec.table;
    TableDef* table = out->db->GetTable(out->spec.table);
    for (const auto& index : table->indices) {
      if (!index->options.unique) {
        out->updater->trigger_labels.insert("index:" + index->name);
      }
    }
    if (out->updater->trigger_labels.empty()) {
      return Status::Internal(
          "updater sweep needs a non-unique secondary index");
    }
  }
  return Status::OK();
}

/// The states a recovered case may legally end in: `s0` the untouched load,
/// and `finals[k]` the completed statement plus the first k updater ops
/// (just the completed statement at k = 0, the only entry when no updater
/// is configured).
struct References {
  CaseState s0;
  std::vector<CaseState> finals;
};

/// Strategy-independent — all strategies delete the same rows, the updater
/// is deterministic, and its inserts land on the same free slots regardless
/// of the index-processing method — so one serial family of reference runs
/// on uninjected databases serves the whole sweep.
Status CaptureReferences(const SweepConfig& config, References* refs) {
  int n_updater_ops = config.concurrency == ConcurrencyProtocol::kNone
                          ? 0
                          : config.updater_ops;
  refs->finals.assign(static_cast<size_t>(n_updater_ops) + 1, CaseState{});
  for (int k = 0; k <= n_updater_ops; ++k) {
    CaseSetup setup;
    BULKDEL_RETURN_IF_ERROR(PrepareCase(config, /*threads=*/1,
                                        /*with_injector=*/false,
                                        /*updater_ops_cap=*/k, &setup));
    if (k == 0) {
      BULKDEL_RETURN_IF_ERROR(
          CaptureState(setup.db.get(), setup.tables, &refs->s0));
    }
    BULKDEL_RETURN_IF_ERROR(
        setup.db->BulkDelete(setup.spec, Strategy::kVerticalSortMerge)
            .status());
    if (setup.updater != nullptr && setup.updater->succeeded.load() != k) {
      return Status::Internal(
          "reference run acknowledged " +
          std::to_string(setup.updater->succeeded.load()) + " of " +
          std::to_string(k) + " updater ops");
    }
    BULKDEL_RETURN_IF_ERROR(setup.db->VerifyIntegrity());
    BULKDEL_RETURN_IF_ERROR(
        CaptureState(setup.db.get(), setup.tables, &refs->finals[k]));
  }
  return Status::OK();
}

enum class CaseOutcome { kPassed, kUnreached, kFailed };

/// Runs one armed case end to end. On failure, `*why` explains what broke.
CaseOutcome RunOneCase(const SweepConfig& config, Strategy strategy,
                       int threads, const std::string& site,
                       uint64_t occurrence, FaultMode mode,
                       const References& refs, std::string* why) {
  CaseSetup setup;
  Status s = PrepareCase(config, threads, /*with_injector=*/true,
                         /*updater_ops_cap=*/-1, &setup);
  if (!s.ok()) {
    *why = "setup failed: " + s.ToString();
    return CaseOutcome::kFailed;
  }

  // Count only delete-statement occurrences: load and checkpoint traffic
  // passed through the same sites and must not shift the numbering.
  setup.injector->ResetCounts();
  setup.injector->Arm(site, occurrence, mode);
  auto report = setup.db->BulkDelete(setup.spec, strategy);

  if (!setup.injector->tripped()) {
    setup.injector->Disarm();
    if (!report.ok()) {
      *why = "uninjected-path delete failed: " + report.status().ToString();
      return CaseOutcome::kFailed;
    }
    // The armed occurrence was never reached. Deterministic (= a harness
    // bug) in serial mode; a legal interleaving effect in parallel mode.
    if (threads <= 1) {
      *why = "serial run never reached the armed occurrence";
      return CaseOutcome::kFailed;
    }
    return CaseOutcome::kUnreached;
  }
  if (report.ok()) {
    *why = "fault tripped [" + setup.injector->trip_description() +
           "] but BulkDelete reported success";
    return CaseOutcome::kFailed;
  }

  // Updater-durability accounting: every op the updater saw acknowledged
  // (OK after the WAL sync) must survive recovery; the single op that may
  // have been attempted but never acknowledged may legitimately be present
  // (its record became durable) or absent (it did not) — but nothing else.
  size_t acked = 0;
  size_t attempted = 0;
  if (setup.updater != nullptr) {
    acked = static_cast<size_t>(setup.updater->succeeded.load());
    attempted = static_cast<size_t>(setup.updater->attempted.load());
  }
  if (acked >= refs.finals.size()) {
    *why = "updater acknowledged " + std::to_string(acked) +
           " ops but only " + std::to_string(refs.finals.size() - 1) +
           " reference states exist";
    return CaseOutcome::kFailed;
  }

  // The process is "down": drop volatile state, reopen, roll forward. The
  // crash also "kills the client": if the armed fault fired before the
  // updater's trigger phase, the hook must not fire for the first time
  // inside the recovery-resumed run.
  if (setup.updater != nullptr) setup.updater->fired.store(true);
  setup.injector->Disarm();
  s = setup.db->SimulateCrashAndRecover();
  if (!s.ok()) {
    *why = "recovery failed: " + s.ToString();
    return CaseOutcome::kFailed;
  }
  s = setup.db->VerifyIntegrity();
  if (!s.ok()) {
    *why = "post-recovery integrity check failed: " + s.ToString();
    return CaseOutcome::kFailed;
  }
  if (setup.db->log().durable_size() != 0) {
    *why = "recovery left " + std::to_string(setup.db->log().durable_size()) +
           " log records behind";
    return CaseOutcome::kFailed;
  }

  CaseState recovered;
  s = CaptureState(setup.db.get(), setup.tables, &recovered);
  if (!s.ok()) {
    *why = "post-recovery digest failed: " + s.ToString();
    return CaseOutcome::kFailed;
  }
  // Recovery rolls the one begun WAL statement — every leg of it — forward:
  // it finishes with every acknowledged updater op applied (finals[acked];
  // plus possibly the one ambiguous unacknowledged op, finals[acked + 1]).
  // A crash before the statement's opening became durable — which also
  // precedes any updater DML — legitimately drops it whole, leaving S0. Any
  // other state is lost work, a partially-applied statement or cross-table
  // skew.
  if (recovered == refs.finals[acked]) return CaseOutcome::kPassed;
  if (attempted > acked && acked + 1 < refs.finals.size() &&
      recovered == refs.finals[acked + 1]) {
    return CaseOutcome::kPassed;
  }
  if (acked == 0 && recovered == refs.s0) return CaseOutcome::kPassed;
  *why = "recovered state matches neither the completed statement (with " +
         std::to_string(acked) + " acknowledged updater ops) nor S0: " +
         "vs completed: " + DescribeDiff(refs.finals[acked], recovered) +
         "; vs S0: " + DescribeDiff(refs.s0, recovered);
  return CaseOutcome::kFailed;
}

const char* ConcurrencyFlagName(ConcurrencyProtocol protocol) {
  switch (protocol) {
    case ConcurrencyProtocol::kNone:
      return "none";
    case ConcurrencyProtocol::kSideFile:
      return "sidefile";
    case ConcurrencyProtocol::kDirectPropagation:
      return "direct";
  }
  return "unknown";
}

/// The identity of one sweep case.
std::string CaseName(const SweepConfig& config, Strategy strategy, int threads,
                     const std::string& site, uint64_t occurrence,
                     FaultMode mode) {
  std::string name = "strategy=";
  name += StrategyName(strategy);
  name += " threads=" + std::to_string(threads);
  name += " concurrency=";
  name += ConcurrencyFlagName(config.concurrency);
  name += " backend=" + config.backend;
  if (config.cascade) {
    name += " cascade=yes";
  } else {
    name += " predicate=" + config.predicate;
  }
  name += " site=" + site;
  name += " occurrence=" + std::to_string(occurrence);
  name += " mode=";
  name += FaultModeName(mode);
  name += " seeds=" + std::to_string(config.workload_seed) + "/" +
          std::to_string(config.delete_keys_seed) + "/" +
          std::to_string(config.injector_seed);
  return name;
}

/// Per-case watchdog: a case still running kCaseLimitSeconds after it
/// started (a hung recovery, say) is reported as failed with its repro line,
/// and the process exits 1, so a hang cannot stall a sweep. Far above any
/// case's run and recovery: milliseconds on the sim backend, about a second
/// on a disk-backed file backend, more under a sanitizer.
constexpr unsigned kCaseLimitSeconds = 120;
char g_overrun_report[2048];
size_t g_overrun_report_len = 0;

extern "C" void OnCaseOverrun(int) {
  [[maybe_unused]] ssize_t n =
      ::write(STDOUT_FILENO, g_overrun_report, g_overrun_report_len);
  ::_exit(1);
}

void ArmCaseWatchdog(const std::string& report) {
  std::fflush(stdout);
  g_overrun_report_len = std::min(report.size(), sizeof(g_overrun_report));
  std::memcpy(g_overrun_report, report.data(), g_overrun_report_len);
  std::signal(SIGALRM, OnCaseOverrun);
  ::alarm(kCaseLimitSeconds);
}

/// Runs one case and records its outcome in `stats`.
void RunCase(const SweepConfig& config, Strategy strategy, int threads,
             const std::string& site, uint64_t occurrence, FaultMode mode,
             const References& refs, SweepStats* stats) {
  std::string name =
      CaseName(config, strategy, threads, site, occurrence, mode);
  ArmCaseWatchdog("FAILED [" + name + "]: still running after " +
                  std::to_string(kCaseLimitSeconds) + " s\n  repro: " +
                  ReproCommand(config, strategy, threads, site, occurrence,
                               mode) +
                  "\n");
  std::string why;
  CaseOutcome outcome = RunOneCase(config, strategy, threads, site,
                                   occurrence, mode, refs, &why);
  ::alarm(0);
  switch (outcome) {
    case CaseOutcome::kPassed:
      ++stats->cases_run;
      if (config.verbose) std::printf("PASS  %s\n", name.c_str());
      break;
    case CaseOutcome::kUnreached:
      ++stats->cases_unreached;
      if (config.verbose) std::printf("SKIP  %s (occurrence unreached)\n",
                                      name.c_str());
      break;
    case CaseOutcome::kFailed: {
      ++stats->cases_run;
      ++stats->failures;
      std::string report = "FAILED [" + name + "]: " + why + "\n  repro: " +
                           ReproCommand(config, strategy, threads, site,
                                        occurrence, mode);
      std::printf("%s\n", report.c_str());
      stats->failure_reports.push_back(std::move(report));
      break;
    }
  }
}

/// Evenly spaced sample of 1..count, always including 1 and count.
/// budget == 0 means exhaustive.
std::vector<uint64_t> SampleOccurrences(uint64_t count, uint64_t budget) {
  std::vector<uint64_t> out;
  if (count == 0) return out;
  if (budget == 0 || count <= budget) {
    for (uint64_t i = 1; i <= count; ++i) out.push_back(i);
    return out;
  }
  for (uint64_t i = 0; i < budget; ++i) {
    uint64_t occurrence = 1 + (i * (count - 1)) / (budget - 1);
    if (out.empty() || out.back() != occurrence) out.push_back(occurrence);
  }
  return out;
}

/// Runs the statement uninjected (but with a counting injector installed) to
/// learn how many times each site fires for this (strategy, threads) pair,
/// and cross-checks its end state against the completed reference state.
Status CountOccurrences(const SweepConfig& config, Strategy strategy,
                        int threads, const CaseState& reference,
                        std::map<std::string, uint64_t>* counts) {
  CaseSetup setup;
  BULKDEL_RETURN_IF_ERROR(PrepareCase(config, threads, /*with_injector=*/true,
                                      /*updater_ops_cap=*/-1, &setup));
  setup.injector->ResetCounts();
  auto report = setup.db->BulkDelete(setup.spec, strategy);
  BULKDEL_RETURN_IF_ERROR(report.status());
  if (setup.updater != nullptr &&
      setup.updater->succeeded.load() != setup.updater->total_ops) {
    return Status::Internal("counting run: updater acknowledged " +
                            std::to_string(setup.updater->succeeded.load()) +
                            " of " +
                            std::to_string(setup.updater->total_ops) +
                            " ops without any fault armed");
  }
  // Snapshot before the digest capture below: its scans hit `disk.read` too
  // and must not inflate the statement's occurrence counts.
  *counts = setup.injector->HitCounts();
  CaseState state;
  BULKDEL_RETURN_IF_ERROR(CaptureState(setup.db.get(), setup.tables, &state));
  if (state != reference) {
    return Status::Internal(
        std::string("counting run for ") + StrategyName(strategy) +
        " diverged from the reference state: " +
        DescribeDiff(reference, state));
  }
  return Status::OK();
}

}  // namespace

std::string ReproCommand(const SweepConfig& config, Strategy strategy,
                         int threads, const std::string& site,
                         uint64_t occurrence, FaultMode mode) {
  std::string cmd = "bulkdel_crashsweep --strategy=";
  cmd += StrategyName(strategy);
  cmd += " --threads=" + std::to_string(threads);
  cmd += " --concurrency=";
  cmd += ConcurrencyFlagName(config.concurrency);
  if (config.concurrency != ConcurrencyProtocol::kNone) {
    cmd += " --updater-ops=" + std::to_string(config.updater_ops);
  }
  if (config.backend != "sim") {
    cmd += " --backend=" + config.backend;
    cmd += " --dir=" + config.scratch_dir;
  }
  if (config.cascade) {
    cmd += " --cascade";
  } else if (config.predicate != "keys") {
    cmd += " --predicate=" + config.predicate;
  }
  // The workload shape: a repro that fell back to the defaults would replay
  // a different statement. 32 bytes hold the shortest round-trip form of
  // any double.
  char fraction[32];
  char* fraction_end = std::to_chars(fraction, fraction + sizeof(fraction),
                                     config.delete_fraction)
                           .ptr;
  cmd += " --tuples=" + std::to_string(config.n_tuples);
  cmd += " --fraction=" + std::string(fraction, fraction_end);
  cmd += " --memory=" + std::to_string(config.memory_budget_bytes);
  cmd += " --site=" + site;
  cmd += " --occurrence=" + std::to_string(occurrence);
  cmd += " --mode=";
  cmd += FaultModeName(mode);
  cmd += " --workload-seed=" + std::to_string(config.workload_seed);
  cmd += " --keys-seed=" + std::to_string(config.delete_keys_seed);
  cmd += " --injector-seed=" + std::to_string(config.injector_seed);
  return cmd;
}

std::string SweepStats::Summary() const {
  return std::to_string(cases_run) + " cases, " + std::to_string(failures) +
         " failures, " + std::to_string(cases_unreached) +
         " occurrences unreached";
}

Status RunCrashSweep(const SweepConfig& config, SweepStats* stats) {
  References refs;
  BULKDEL_RETURN_IF_ERROR(CaptureReferences(config, &refs));

  for (Strategy strategy : config.strategies) {
    for (int threads : config.thread_counts) {
      std::map<std::string, uint64_t> counts;
      BULKDEL_RETURN_IF_ERROR(CountOccurrences(config, strategy, threads,
                                               refs.finals.back(), &counts));
      for (const FaultSiteInfo& site : FaultInjector::KnownSites()) {
        if (!config.only_site.empty() && config.only_site != site.name) {
          continue;
        }
        uint64_t count = 0;
        auto it = counts.find(site.name);
        if (it != counts.end()) count = it->second;
        if (count == 0 && config.only_occurrence == 0) continue;

        std::vector<uint64_t> occurrences;
        if (config.only_occurrence != 0) {
          occurrences.push_back(config.only_occurrence);
        } else {
          occurrences =
              SampleOccurrences(count, config.occurrences_per_site);
        }
        // Fail-stop crashes everywhere. Torn/short *data-page* writes are
        // not recoverable without page checksums (docs/FAULTS.md) and are
        // exercised by unit tests instead; torn *log* syncs are sound under
        // the WAL rule and are swept too.
        std::vector<FaultMode> modes = {FaultMode::kCrash};
        if (config.include_torn_log_sync &&
            std::string(site.name) == fault_sites::kLogSync) {
          modes.push_back(FaultMode::kTornWrite);
        }
        for (uint64_t occurrence : occurrences) {
          for (FaultMode mode : modes) {
            if (!config.only_mode.empty() &&
                config.only_mode != FaultModeName(mode)) {
              continue;
            }
            RunCase(config, strategy, threads, site.name, occurrence, mode,
                    refs, stats);
          }
        }
      }
    }
  }
  return Status::OK();
}

Status RunTortureSweep(const SweepConfig& config, int seconds, uint64_t seed,
                       SweepStats* stats) {
  References refs;
  BULKDEL_RETURN_IF_ERROR(CaptureReferences(config, &refs));

  // Occurrence counts per (strategy, threads), learned lazily.
  std::map<std::pair<int, int>, std::map<std::string, uint64_t>> count_cache;
  std::mt19937_64 rng(seed);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(seconds);

  while (std::chrono::steady_clock::now() < deadline) {
    Strategy strategy =
        config.strategies[rng() % config.strategies.size()];
    int threads = config.thread_counts[rng() % config.thread_counts.size()];
    auto cache_key = std::make_pair(static_cast<int>(strategy), threads);
    auto cached = count_cache.find(cache_key);
    if (cached == count_cache.end()) {
      std::map<std::string, uint64_t> counts;
      BULKDEL_RETURN_IF_ERROR(CountOccurrences(config, strategy, threads,
                                               refs.finals.back(), &counts));
      cached = count_cache.emplace(cache_key, std::move(counts)).first;
    }
    const auto& counts = cached->second;
    const auto& sites = FaultInjector::KnownSites();
    const FaultSiteInfo& site = sites[rng() % sites.size()];
    auto it = counts.find(site.name);
    if (it == counts.end() || it->second == 0) continue;
    uint64_t occurrence = 1 + rng() % it->second;
    FaultMode mode = FaultMode::kCrash;
    if (config.include_torn_log_sync &&
        std::string(site.name) == fault_sites::kLogSync && rng() % 2 == 0) {
      mode = FaultMode::kTornWrite;
    }
    RunCase(config, strategy, threads, site.name, occurrence, mode, refs,
            stats);
  }
  return Status::OK();
}

}  // namespace bulkdel
