// End-to-end benchmark driver for bulkdel: one workload per process.
//
//   bulkdel_perf --workload=paper_delete|forget_cascade|served_mix
//                --seed=N --seconds=S --trace=0|1 --dir=SCRATCH_DIR
//
// Workloads (all inputs derive from --seed):
//   paper_delete    the paper's statement, DELETE FROM R WHERE R.A IN (D),
//                   removing 10% of a 100k-row, three-index table under the
//                   paper's memory ratio (5 MB per 512 MB of table), simulated
//                   disk backend. Deleted rows are re-inserted, untimed,
//                   before the next statement.
//   forget_cascade  "forget 1% of users": a bulk delete on USERS keyed on the
//                   external id, cascading through ORDERS -> EVENTS, SESSIONS,
//                   POSTS, COMMENTS and LIKES, on the file backend with the
//                   recovery log on (WAL + checkpoint fsync barriers).
//                   Forgotten users are re-inserted, untimed, afterwards.
//   served_mix      2 closed-loop clients over loopback sockets against the
//                   in-process SQL server: INSERT / point SELECT / IN-list
//                   DELETE / BETWEEN DELETE in the weights 8:8:1:1 over a
//                   20k-row table, each delete archiving a client's 1024
//                   oldest rows while the others keep inserting through the
//                   side-file protocol.
//
// End-to-end metrics (--trace=0): latency_ms and tail_ms are the median and
// 90th percentile of the workload's bulk-delete statement latency as its
// caller sees it (for served_mix: the client round trip of DELETE
// statements); setup_s is the median of the run's set-ups, one per round.
//
// Per-layer metrics (--trace=1, span recording on): the statement's phases
// (sort, key-index pass, table pass, secondary-index passes, finalize, FK
// planning, cascade legs, unattributed rest), the served path (server time,
// socket time, point-op latency), buffer pool, WAL and simulated disk. See
// README.md in this directory for what each one means.
//
// The last line on stdout is one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value":
//    X, "unit": U}, ...}}
// Correctness: every statement must succeed and delete exactly the rows its
// inputs name; the database must pass VerifyIntegrity() at the end, and the
// batch workloads must end with the same logical content (rows and index
// entries, RID-free) they started with.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/sql.h"
#include "fault/crash_sweep.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "workload/generator.h"

namespace bulkdel {
namespace perf {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// A run is this many rounds, each a fresh (timed) set-up followed by an
/// equal share of --seconds of measured statements. The host's speed drifts
/// on a scale of seconds; rounds spread the set-ups over the whole run
/// instead of sampling one moment, so their median is steadier.
constexpr int kRounds = 5;
/// Statements run before each round's measuring starts (caches fill, lazy
/// set-up ends).
constexpr int kWarmupStatements = 3;
/// A round measures at least this many statements, however short --seconds.
constexpr int kMinStatementsPerRound = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir = ".bench_build/perfbench-db";
};

double RoundSeconds(const Args& args) { return args.seconds / kRounds; }

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    std::string name = arg.substr(2, eq - 2);
    std::string value = arg.substr(eq + 1);
    if (name == "workload") {
      args->workload = value;
    } else if (name == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (name == "trace") {
      args->trace = value == "1";
    } else if (name == "dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// Per-layer metric names, in output order, with their units. Every run
/// prints all of them (a layer a workload does not exercise reads 0).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"sort_ms", "ms"},           {"key_index_ms", "ms"},
    {"table_ms", "ms"},          {"secondary_index_ms", "ms"},
    {"finalize_ms", "ms"},       {"fk_plan_ms", "ms"},
    {"cascade_ms", "ms"},        {"unattributed_ms", "ms"},
    {"server_ms", "ms"},         {"wire_ms", "ms"},
    {"point_op_ms", "ms"},       {"bp_fetch_ms", "ms"},
    {"latch_wait_ms", "ms"},     {"wal_sync_ms", "ms"},
    {"disk_sim_ms", "ms"},       {"disk_reads", "count"},
    {"disk_writes", "count"},    {"bp_hit_pct", "%"},
    {"wal_fsyncs", "count"},     {"sidefile_appends", "count"},
};

/// What one run measured.
struct RunResult {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;  ///< measured bulk-delete statements
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::string first_error;
  /// Per-layer sums over the measured statements; Main() turns them into
  /// the reported values.
  std::map<std::string, double> layers;
  int64_t bp_hits = 0;
  int64_t bp_misses = 0;

  /// A statement failed or returned a wrong answer.
  void Fail(const std::string& what) {
    ++failed;
    Wrong(what);
  }
  /// An end-of-run oracle check disagreed.
  void Wrong(const std::string& what) {
    correct = false;
    if (first_error.empty()) first_error = what;
  }
};

double HistogramSumMs(const obs::MetricsSnapshot& m, const char* name) {
  const obs::HistogramSnapshot* h = m.FindHistogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum) / 1e6;
}

/// Sums of the observability-plane layers shared by every workload: buffer
/// pool time and hit counts, latch waits, WAL sync time and fsyncs, and the
/// simulated disk.
void AddStorageLayers(const obs::MetricsSnapshot& m, const IoStats& io,
                      const BufferPoolStats& pool, RunResult* run) {
  run->layers["bp_fetch_ms"] +=
      HistogramSumMs(m, obs::metric_names::kBpFetchNs);
  run->layers["latch_wait_ms"] +=
      HistogramSumMs(m, obs::metric_names::kBpLatchWaitNs) +
      HistogramSumMs(m, obs::metric_names::kIdxLatchWaitNs);
  run->layers["wal_sync_ms"] +=
      HistogramSumMs(m, obs::metric_names::kWalSyncNs);
  run->layers["wal_fsyncs"] +=
      static_cast<double>(m.CounterOr(obs::metric_names::kWalFsyncs));
  run->layers["sidefile_appends"] +=
      static_cast<double>(m.CounterOr(obs::metric_names::kSideFileAppends));
  run->layers["disk_sim_ms"] += static_cast<double>(io.simulated_micros) / 1e3;
  run->layers["disk_reads"] += static_cast<double>(io.reads);
  run->layers["disk_writes"] += static_cast<double>(io.writes);
  run->bp_hits += pool.hits;
  run->bp_misses += pool.misses;
}

/// Splits one bulk-delete statement's latency over the executor's phases.
/// `key_phase` names the key-index pass ("index:<table>.<key column>").
void AddStatementLayers(const BulkDeleteReport& report, double latency_ms,
                        const std::string& key_phase, RunResult* run) {
  double phases_ms = 0;
  for (const PhaseStats& p : report.phases) {
    double ms = static_cast<double>(p.wall_micros) / 1e3;
    phases_ms += ms;
    const std::string& n = p.name;
    const char* layer = "unattributed_ms";
    if (n == "sort-keys" || n == "range-scan-keys") {
      layer = "sort_ms";
    } else if (n == key_phase) {
      layer = "key_index_ms";
    } else if (n == "table" || n == "delete" || n == "record-at-a-time") {
      layer = "table_ms";
    } else if (n.rfind("index:", 0) == 0 || n.rfind("rebuild:", 0) == 0 ||
               n == "drop-indexes") {
      layer = "secondary_index_ms";
    } else if (n == "finalize") {
      layer = "finalize_ms";
    } else if (n == "fk-plan") {
      layer = "fk_plan_ms";
    } else if (n.rfind("cascade:", 0) == 0) {
      layer = "cascade_ms";
    }
    run->layers[layer] += ms;
  }
  run->layers["unattributed_ms"] += std::max(0.0, latency_ms - phases_ms);
  AddStorageLayers(report.metrics, report.io, report.pool, run);
}

/// Draws `k` distinct indices from [0, order->size()) into the front of
/// `order` (partial Fisher-Yates; `order` stays a permutation).
void DrawDistinct(size_t k, std::mt19937_64* rng,
                  std::vector<uint64_t>* order) {
  for (size_t i = 0; i < k; ++i) {
    std::uniform_int_distribution<size_t> pick(i, order->size() - 1);
    std::swap((*order)[i], (*order)[pick(*rng)]);
  }
}

/// A workload whose measured statement is one in-process bulk delete,
/// followed by an untimed restore that puts the deleted rows back, so every
/// statement runs against the same logical content.
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  /// Builds a fresh, loaded database (replacing any previous one).
  virtual Status Setup(const Args& args) = 0;
  /// Runs one measured statement and its restore. Records the latency and
  /// layer breakdown into `run` when `record` is set.
  virtual void Statement(std::mt19937_64* rng, bool record, RunResult* run) = 0;
  /// End-of-run oracle checks.
  virtual Status VerifyFinal() = 0;
  virtual void Teardown() = 0;
};

DatabaseOptions BaseOptions(const Args& args, size_t memory_bytes) {
  DatabaseOptions options;
  options.memory_budget_bytes = memory_bytes;
  options.trace_spans = args.trace;
  return options;
}

/// The paper's memory ratio: 5 MB of memory per 1M x 512 B of table.
size_t PaperMemoryBytes(uint64_t rows, uint32_t tuple_size) {
  double bytes = 5.0 * 1024 * 1024 * static_cast<double>(rows) * tuple_size /
                 (1000000.0 * 512.0);
  return std::max<size_t>(static_cast<size_t>(bytes), 64u << 10);
}

// -- paper_delete ------------------------------------------------------------

class PaperDelete : public BatchWorkload {
 public:
  static constexpr uint64_t kRows = 100000;
  static constexpr uint32_t kTupleSize = 256;
  static constexpr size_t kDeleteRows = kRows / 10;
  static constexpr uint64_t kIndexes = 3;

  Status Setup(const Args& args) override {
    db_.reset();
    BULKDEL_ASSIGN_OR_RETURN(
        db_, Database::Create(
                 BaseOptions(args, PaperMemoryBytes(kRows, kTupleSize))));
    WorkloadSpec spec;
    spec.n_tuples = kRows;
    spec.tuple_size = kTupleSize;
    spec.seed = args.seed;
    BULKDEL_ASSIGN_OR_RETURN(
        workload_, SetUpPaperDatabase(db_.get(), spec, {"A", "B", "C"}));
    BULKDEL_ASSIGN_OR_RETURN(initial_hash_, LogicalContentHash(db_.get(), "R"));
    order_.resize(kRows);
    for (uint64_t i = 0; i < kRows; ++i) order_[i] = i;
    return Status::OK();
  }

  void Statement(std::mt19937_64* rng, bool record, RunResult* run) override {
    DrawDistinct(kDeleteRows, rng, &order_);
    BulkDeleteSpec spec;
    spec.table = "R";
    spec.key_column = "A";
    for (size_t i = 0; i < kDeleteRows; ++i) {
      spec.keys.push_back(workload_.values[0][order_[i]]);
    }
    ++run->attempted;
    Clock::time_point t0 = Clock::now();
    Result<BulkDeleteReport> report =
        db_->BulkDelete(spec, Strategy::kOptimizer);
    double ms = MillisSince(t0);
    if (!report.ok()) return run->Fail("delete: " + report.status().ToString());
    TableDef* r = db_->GetTable("R");
    if (report->rows_deleted != kDeleteRows ||
        report->index_entries_deleted != kDeleteRows * kIndexes ||
        r->table->tuple_count() != kRows - kDeleteRows) {
      return run->Fail("delete removed " +
                       std::to_string(report->rows_deleted) + " rows / " +
                       std::to_string(report->index_entries_deleted) +
                       " index entries, expected " +
                       std::to_string(kDeleteRows) + " / " +
                       std::to_string(kDeleteRows * kIndexes));
    }
    if (record) {
      run->latency_ms.push_back(ms);
      AddStatementLayers(*report, ms, "index:R.A", run);
    }
    std::vector<int64_t> row(workload_.values.size());
    for (size_t i = 0; i < kDeleteRows; ++i) {
      for (size_t c = 0; c < row.size(); ++c) {
        row[c] = workload_.values[c][order_[i]];
      }
      Result<Rid> rid = db_->InsertRow("R", row);
      if (!rid.ok()) return run->Fail("restore: " + rid.status().ToString());
    }
  }

  Status VerifyFinal() override {
    BULKDEL_RETURN_IF_ERROR(db_->VerifyIntegrity());
    BULKDEL_ASSIGN_OR_RETURN(std::string hash,
                             LogicalContentHash(db_.get(), "R"));
    if (hash != initial_hash_) {
      return Status::Corruption("R ends as {" + hash + "}, started as {" +
                                initial_hash_ + "}");
    }
    return Status::OK();
  }

  void Teardown() override { db_.reset(); }

 private:
  std::unique_ptr<Database> db_;
  Workload workload_;
  std::string initial_hash_;
  std::vector<uint64_t> order_;
};

// -- forget_cascade ----------------------------------------------------------

class ForgetCascade : public BatchWorkload {
 public:
  static constexpr int64_t kUsers = 10000;
  static constexpr size_t kForgetUsers = kUsers / 100;
  static constexpr uint32_t kTupleSize = 256;
  /// Rows per user: the user, 2 orders with 2 events each, 2 sessions, one
  /// post, one comment and one like.
  static constexpr uint64_t kRowsPerUser = 12;
  static constexpr const char* kTables[] = {
      "USERS", "ORDERS", "SESSIONS", "POSTS", "COMMENTS", "LIKES", "EVENTS"};

  Status Setup(const Args& args) override {
    Teardown();
    path_ = args.dir + "/forget";
    DatabaseOptions options = BaseOptions(
        args, PaperMemoryBytes(kUsers * kRowsPerUser, kTupleSize));
    options.backend = StorageBackend::kFile;
    options.path = path_;
    options.enable_recovery_log = true;
    BULKDEL_ASSIGN_OR_RETURN(db_, Database::Create(options));

    Schema schema = *Schema::PaperStyle(3, kTupleSize);
    for (const char* t : kTables) {
      BULKDEL_RETURN_IF_ERROR(db_->CreateTable(t, schema).status());
      BULKDEL_RETURN_IF_ERROR(
          db_->CreateIndex(t, "A", {.unique = true}).status());
      if (std::strcmp(t, "USERS") != 0) {
        BULKDEL_RETURN_IF_ERROR(db_->CreateIndex(t, "B").status());
      }
    }
    // The statement keys on the users' external id, not the primary key.
    BULKDEL_RETURN_IF_ERROR(
        db_->CreateIndex("USERS", "B", {.unique = true}).status());
    // The seed decides the physical load order of the users.
    std::vector<uint64_t> load(kUsers);
    for (int64_t u = 0; u < kUsers; ++u) load[u] = static_cast<uint64_t>(u);
    std::mt19937_64 rng(args.seed);
    std::shuffle(load.begin(), load.end(), rng);
    for (uint64_t u : load) {
      BULKDEL_RETURN_IF_ERROR(InsertUser(static_cast<int64_t>(u)));
    }
    for (const char* t : {"ORDERS", "SESSIONS", "POSTS", "COMMENTS", "LIKES"}) {
      BULKDEL_RETURN_IF_ERROR(
          db_->AddForeignKey(t, "B", "USERS", "A", FkAction::kCascade));
    }
    BULKDEL_RETURN_IF_ERROR(
        db_->AddForeignKey("EVENTS", "B", "ORDERS", "A", FkAction::kCascade));
    BULKDEL_RETURN_IF_ERROR(db_->Checkpoint());
    initial_hashes_.clear();
    for (const char* t : kTables) {
      BULKDEL_ASSIGN_OR_RETURN(std::string hash,
                               LogicalContentHash(db_.get(), t));
      initial_hashes_.push_back(std::move(hash));
    }
    users_.resize(kUsers);
    for (int64_t u = 0; u < kUsers; ++u) users_[u] = static_cast<uint64_t>(u);
    return Status::OK();
  }

  void Statement(std::mt19937_64* rng, bool record, RunResult* run) override {
    DrawDistinct(kForgetUsers, rng, &users_);
    BulkDeleteSpec spec;
    spec.table = "USERS";
    spec.key_column = "B";
    for (size_t i = 0; i < kForgetUsers; ++i) {
      spec.keys.push_back(ExternalId(static_cast<int64_t>(users_[i])));
    }
    ++run->attempted;
    Clock::time_point t0 = Clock::now();
    Result<BulkDeleteReport> report =
        db_->BulkDelete(spec, Strategy::kOptimizer);
    double ms = MillisSince(t0);
    if (!report.ok()) return run->Fail("forget: " + report.status().ToString());
    std::map<std::string, uint64_t> per_table;
    for (const CascadeTableRows& leg : report->cascade_tables) {
      per_table[leg.table] += leg.rows;
    }
    const std::map<std::string, uint64_t> expected = {
        {"ORDERS", 2 * kForgetUsers},   {"EVENTS", 4 * kForgetUsers},
        {"SESSIONS", 2 * kForgetUsers}, {"POSTS", kForgetUsers},
        {"COMMENTS", kForgetUsers},     {"LIKES", kForgetUsers}};
    if (report->rows_deleted != kForgetUsers ||
        report->cascaded_rows != (kRowsPerUser - 1) * kForgetUsers ||
        per_table != expected ||
        db_->GetTable("USERS")->table->tuple_count() !=
            static_cast<uint64_t>(kUsers) - kForgetUsers) {
      return run->Fail("forget removed " +
                       std::to_string(report->rows_deleted) + " users and " +
                       std::to_string(report->cascaded_rows) +
                       " cascaded rows, expected " +
                       std::to_string(kForgetUsers) + " and " +
                       std::to_string((kRowsPerUser - 1) * kForgetUsers));
    }
    if (record) {
      run->latency_ms.push_back(ms);
      AddStatementLayers(*report, ms, "index:USERS.B", run);
    }
    for (size_t i = 0; i < kForgetUsers; ++i) {
      Status s = InsertUser(static_cast<int64_t>(users_[i]));
      if (!s.ok()) return run->Fail("restore: " + s.ToString());
    }
  }

  Status VerifyFinal() override {
    BULKDEL_RETURN_IF_ERROR(db_->VerifyIntegrity());
    for (size_t i = 0; i < std::size(kTables); ++i) {
      BULKDEL_ASSIGN_OR_RETURN(std::string hash,
                               LogicalContentHash(db_.get(), kTables[i]));
      if (hash != initial_hashes_[i]) {
        return Status::Corruption(std::string(kTables[i]) + " ends as {" +
                                  hash + "}, started as {" +
                                  initial_hashes_[i] + "}");
      }
    }
    return Status::OK();
  }

  void Teardown() override {
    db_.reset();
    if (!path_.empty()) std::filesystem::remove_all(path_);
  }

 private:
  /// External ids are a bijection of the user id (the multiplier is odd and
  /// prime), scattered so the doomed users' RIDs are not clustered.
  static int64_t ExternalId(int64_t user) {
    return (user * 2654435761LL) % (kUsers * 64) + 1000000;
  }

  /// Inserts user `u` and its child rows, parents first.
  Status InsertUser(int64_t u) {
    BULKDEL_RETURN_IF_ERROR(
        db_->InsertRow("USERS", {u, ExternalId(u), u * 7}).status());
    for (int64_t o = 2 * u; o < 2 * u + 2; ++o) {
      BULKDEL_RETURN_IF_ERROR(db_->InsertRow("ORDERS", {o, u, o * 5}).status());
      for (int64_t e = 2 * o; e < 2 * o + 2; ++e) {
        BULKDEL_RETURN_IF_ERROR(
            db_->InsertRow("EVENTS", {e, o, e * 11}).status());
      }
    }
    for (int64_t s = 2 * u; s < 2 * u + 2; ++s) {
      BULKDEL_RETURN_IF_ERROR(
          db_->InsertRow("SESSIONS", {s, u, s * 3}).status());
    }
    BULKDEL_RETURN_IF_ERROR(db_->InsertRow("POSTS", {u, u, u * 13}).status());
    BULKDEL_RETURN_IF_ERROR(
        db_->InsertRow("COMMENTS", {u, u, u * 17}).status());
    return db_->InsertRow("LIKES", {u, u, u * 19}).status();
  }

  std::unique_ptr<Database> db_;
  std::vector<std::string> initial_hashes_;
  std::vector<uint64_t> users_;
  std::string path_;
};

/// Moves the calling thread from core to core of the CPU set the run
/// started with. The host slows single cores for seconds at a time,
/// independently of each other; a single-threaded workload that visits
/// every core in turn averages over them instead of inheriting one core's
/// state for a whole run. Restores the original CPU set on destruction.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CoreRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

int RunBatch(BatchWorkload* workload, const Args& args, RunResult* run) {
  CoreRotation cores;
  for (int round = 0; round < kRounds && run->correct; ++round) {
    cores.Next();
    Clock::time_point t0 = Clock::now();
    Status s = workload->Setup(args);
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      return 1;
    }
    run->setup_s.push_back(MillisSince(t0) / 1e3);
    std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + round);
    for (int i = 0; i < kWarmupStatements && run->correct; ++i) {
      cores.Next();
      workload->Statement(&rng, /*record=*/false, run);
    }
    Clock::time_point start = Clock::now();
    for (int measured = 0;
         run->correct && (MillisSince(start) < RoundSeconds(args) * 1e3 ||
                          measured < kMinStatementsPerRound);
         ++measured) {
      cores.Next();
      workload->Statement(&rng, /*record=*/true, run);
    }
    if (run->correct) {
      s = workload->VerifyFinal();
      if (!s.ok()) run->Wrong("final check: " + s.ToString());
    }
  }
  workload->Teardown();
  return 0;
}

// -- served_mix --------------------------------------------------------------

/// Two clients keep the client and server threads below the core count
/// (one outstanding request each), which keeps host scheduling noise out of
/// the figures; it still lets one client insert while the other deletes.
constexpr int kServedClients = 2;
constexpr int64_t kServedPreload = 20000;
/// Keys per DELETE: large enough that the planner picks the vertical plan,
/// so concurrent inserts go through the side-files.
constexpr int kServedBatch = 1024;
/// Each client keeps at least this many of its rows live: deletes archive
/// the oldest rows beyond it (a sliding window), so R stays near its
/// preloaded size for the whole run.
constexpr size_t kServedRetain = kServedPreload / kServedClients;
/// Op weights: insert, point read, IN-list delete, BETWEEN delete.
constexpr int64_t kServedMix[4] = {8, 8, 1, 1};

enum OpClass { kInsert, kRead, kInDelete, kRangeDelete };

struct ClientLog {
  std::vector<double> delete_ms;  ///< DELETE round trips after warm-up
  std::vector<double> point_ms;   ///< INSERT / SELECT round trips after warm-up
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t inserts = 0;
  int64_t rows_deleted = 0;
  double sim_disk_ms = 0;  ///< simulated disk time reported by measured deletes
  std::string first_error;
};

std::string InsertStatement(int64_t key) {
  return "INSERT INTO R VALUES (" + std::to_string(key) + ", " +
         std::to_string(key % 997) + ", " + std::to_string(key % 101) + ")";
}

/// One closed-loop client. It owns the keys in `live` (oldest first) plus
/// a private range for new inserts, so each delete knows exactly which rows
/// it must remove. A delete runs only once the client holds a batch beyond
/// kServedRetain rows; until then it inserts, so the mix settles where
/// inserts feed the deletes.
void RunServedClient(uint16_t port, int id, uint64_t seed,
                     Clock::time_point warm_until, Clock::time_point deadline,
                     std::vector<int64_t> live, ClientLog* log) {
  Result<net::Client> conn = net::Client::Connect("127.0.0.1", port);
  if (!conn.ok()) {
    log->failed = 1;
    log->first_error = "connect: " + conn.status().ToString();
    return;
  }
  net::Client client = std::move(*conn);
  std::mt19937_64 rng(seed * 1000003u + static_cast<uint64_t>(id));
  int64_t next_key = (static_cast<int64_t>(id) + 1) << 40;
  size_t head = 0;  // live[head..] are the client's live keys
  const int64_t total = kServedMix[0] + kServedMix[1] + kServedMix[2] +
                        kServedMix[3];
  while (Clock::now() < deadline) {
    int64_t draw = static_cast<int64_t>(rng() % static_cast<uint64_t>(total));
    OpClass op = kInsert;
    if (draw >= kServedMix[0]) op = kRead;
    if (draw >= kServedMix[0] + kServedMix[1]) op = kInDelete;
    if (draw >= kServedMix[0] + kServedMix[1] + kServedMix[2]) {
      op = kRangeDelete;
    }
    size_t backlog = live.size() - head;
    if ((op == kInDelete || op == kRangeDelete) &&
        backlog < kServedRetain + kServedBatch) {
      op = kInsert;
    }
    // BETWEEN removes exactly the batch only over a gap-free key window.
    if (op == kRangeDelete &&
        live[head + kServedBatch - 1] - live[head] != kServedBatch - 1) {
      op = kInDelete;
    }
    std::string statement;
    std::string expect;
    if (op == kInsert) {
      statement = InsertStatement(next_key);
    } else if (op == kRead) {
      std::uniform_int_distribution<size_t> pick(head, live.size() - 1);
      std::string key = std::to_string(live[pick(rng)]);
      statement =
          "SELECT COUNT(*) FROM R WHERE A BETWEEN " + key + " AND " + key;
      expect = "count = 1 ";
    } else if (op == kRangeDelete) {
      statement = "DELETE FROM R WHERE A BETWEEN " +
                  std::to_string(live[head]) + " AND " +
                  std::to_string(live[head + kServedBatch - 1]);
      expect = "deleted " + std::to_string(kServedBatch) + " row(s) [";
    } else {
      statement = "DELETE FROM R WHERE A IN (";
      for (int i = 0; i < kServedBatch; ++i) {
        if (i > 0) statement += ", ";
        statement += std::to_string(live[head + static_cast<size_t>(i)]);
      }
      statement += ")";
      expect = "deleted " + std::to_string(kServedBatch) + " row(s) [";
    }
    ++log->attempted;
    Clock::time_point t0 = Clock::now();
    Result<std::string> reply = client.Execute(statement);
    double ms = MillisSince(t0);
    if (!reply.ok() || reply->rfind(expect, 0) != 0) {
      ++log->failed;
      if (log->first_error.empty()) {
        log->first_error =
            (reply.ok() ? "reply \"" + *reply + "\""
                        : reply.status().ToString()) +
            " to [" + statement.substr(0, 80) + "]";
      }
      return;
    }
    bool measured = t0 >= warm_until;
    if (op == kInsert) {
      live.push_back(next_key++);
      ++log->inserts;
    } else if (op != kRead) {
      head += kServedBatch;
      log->rows_deleted += kServedBatch;
      if (measured) {
        // Reply: "deleted N row(s) [<strategy>, <seconds> simulated s]".
        size_t comma = reply->find(", ");
        if (comma != std::string::npos) {
          log->sim_disk_ms +=
              std::strtod(reply->c_str() + comma + 2, nullptr) * 1e3;
        }
      }
    }
    if (head > 4096) {  // keep the live window compact
      live.erase(live.begin(), live.begin() + static_cast<ptrdiff_t>(head));
      head = 0;
    }
    if (measured) {
      (op == kInsert || op == kRead ? log->point_ms : log->delete_ms)
          .push_back(ms);
    }
  }
}

struct ServedDb {
  std::unique_ptr<Database> db;
  std::unique_ptr<net::Server> server;
};

/// Starts the server on a fresh database and loads R through a socket,
/// one INSERT per row, as a client would.
Status SetUpServed(const Args& args, ServedDb* out) {
  DatabaseOptions options = BaseOptions(args, 8u << 20);
  options.enable_recovery_log = true;
  options.concurrency = ConcurrencyProtocol::kSideFile;
  BULKDEL_ASSIGN_OR_RETURN(out->db, Database::Create(options));
  net::ServerOptions server_options;
  server_options.max_sessions = kServedClients + 2;
  BULKDEL_ASSIGN_OR_RETURN(out->server,
                           net::Server::Start(out->db.get(), server_options));
  BULKDEL_ASSIGN_OR_RETURN(
      net::Client loader,
      net::Client::Connect("127.0.0.1", out->server->port()));
  for (const char* ddl : {"CREATE TABLE R (A INT, B INT, C INT)",
                          "CREATE UNIQUE INDEX ON R (A)",
                          "CREATE INDEX ON R (B)", "CREATE INDEX ON R (C)"}) {
    BULKDEL_RETURN_IF_ERROR(loader.Execute(ddl).status());
  }
  for (int64_t k = 1; k <= kServedPreload; ++k) {
    BULKDEL_RETURN_IF_ERROR(loader.Execute(InsertStatement(k)).status());
  }
  return Status::OK();
}

/// Served-path sums over every round of a run.
struct ServedTotals {
  double rtt_ms = 0;       ///< all measured round trips
  double server_ms = 0;    ///< server-side time of the same window
  double sim_disk_ms = 0;  ///< simulated disk time of measured deletes
  std::vector<double> point_ms;
};

/// One round: a timed set-up, then the clients for RoundSeconds() after a
/// warm-up, then the oracle checks. Returns non-OK only if set-up fails;
/// wrong answers are recorded in `run`.
Status RunServedRound(const Args& args, int round, RunResult* run,
                      ServedTotals* totals) {
  ServedDb served;
  Clock::time_point t0 = Clock::now();
  BULKDEL_RETURN_IF_ERROR(SetUpServed(args, &served));
  run->setup_s.push_back(MillisSince(t0) / 1e3);
  Database* db = served.db.get();
  uint16_t port = served.server->port();

  // Preloaded keys are dealt out in one contiguous block per client, so
  // BETWEEN deletes find gap-free windows from the start.
  std::vector<std::vector<int64_t>> live(kServedClients);
  for (int64_t k = 1; k <= kServedPreload; ++k) {
    live[static_cast<size_t>((k - 1) * kServedClients / kServedPreload)]
        .push_back(k);
  }
  double warmup_s = std::min(1.0, RoundSeconds(args) * 0.1);
  Clock::time_point start = Clock::now();
  auto at = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  Clock::time_point warm_until = at(warmup_s);
  Clock::time_point deadline = at(warmup_s + RoundSeconds(args));
  std::vector<ClientLog> logs(kServedClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kServedClients; ++c) {
    threads.emplace_back(RunServedClient, port, c, args.seed * kRounds + round,
                         warm_until, deadline,
                         std::move(live[static_cast<size_t>(c)]),
                         &logs[static_cast<size_t>(c)]);
  }
  std::this_thread::sleep_until(warm_until);
  obs::MetricsSnapshot metrics_before = db->metrics().Snapshot();
  IoStats io_before = db->disk().stats();
  BufferPoolStats pool_before = db->pool().stats();
  for (std::thread& t : threads) t.join();
  obs::MetricsSnapshot metrics = db->metrics().Snapshot() - metrics_before;
  AddStorageLayers(metrics, db->disk().stats() - io_before,
                   db->pool().stats() - pool_before, run);
  const obs::HistogramSnapshot* req =
      metrics.FindHistogram(obs::metric_names::kNetReqNs);
  if (req != nullptr) totals->server_ms += static_cast<double>(req->sum) / 1e6;

  int64_t inserts = 0, rows_deleted = 0;
  for (ClientLog& log : logs) {
    run->attempted += log.attempted;
    run->failed += log.failed;
    if (log.failed > 0) run->Wrong(log.first_error);
    inserts += log.inserts;
    rows_deleted += log.rows_deleted;
    totals->sim_disk_ms += log.sim_disk_ms;
    for (double ms : log.delete_ms) totals->rtt_ms += ms;
    for (double ms : log.point_ms) totals->rtt_ms += ms;
    run->latency_ms.insert(run->latency_ms.end(), log.delete_ms.begin(),
                           log.delete_ms.end());
    totals->point_ms.insert(totals->point_ms.end(), log.point_ms.begin(),
                            log.point_ms.end());
  }

  // Oracle: every acknowledged insert and delete is visible.
  int64_t expected = kServedPreload + inserts - rows_deleted;
  Result<net::Client> check = net::Client::Connect("127.0.0.1", port);
  Result<std::string> count =
      check.ok() ? check->Execute("SELECT COUNT(*) FROM R") : check.status();
  if (!count.ok() || *count != "count = " + std::to_string(expected)) {
    run->Wrong("final count " +
              (count.ok() ? *count : count.status().ToString()) +
              ", expected " + std::to_string(expected));
  }
  if (check.ok()) check->Close();
  Status stopped = served.server->Stop();
  if (!stopped.ok()) run->Wrong("server stop: " + stopped.ToString());
  Status integrity = db->VerifyIntegrity();
  if (!integrity.ok()) {
    run->Wrong("VerifyIntegrity: " + integrity.ToString());
  }
  return Status::OK();
}

int RunServed(const Args& args, RunResult* run) {
  ServedTotals totals;
  for (int round = 0; round < kRounds && run->correct; ++round) {
    Status s = RunServedRound(args, round, run, &totals);
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  // Served-path layers are per statement served, except side-file appends
  // and simulated disk time, which are per DELETE.
  double statements = std::max<double>(
      static_cast<double>(run->latency_ms.size() + totals.point_ms.size()), 1);
  double deletes =
      std::max<double>(static_cast<double>(run->latency_ms.size()), 1);
  for (auto& [name, value] : run->layers) {
    value /= name == "sidefile_appends" ? deletes : statements;
  }
  run->layers["disk_sim_ms"] = totals.sim_disk_ms / deletes;
  run->layers["server_ms"] = totals.server_ms / statements;
  run->layers["wire_ms"] = (totals.rtt_ms - totals.server_ms) / statements;
  std::sort(totals.point_ms.begin(), totals.point_ms.end());
  run->layers["point_op_ms"] =
      totals.point_ms.empty() ? 0.0
                              : totals.point_ms[totals.point_ms.size() / 2];
  return 0;
}

// -- output ------------------------------------------------------------------

/// Linear-interpolated quantile of sorted samples.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

void AppendMetric(std::string* out, const char* name, double value,
                  const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name, value, unit);
  *out += buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload=paper_delete|forget_cascade|served_mix "
                 "--seed=N --seconds=S --trace=0|1 [--dir=PATH]\n",
                 argv[0]);
    return 2;
  }
  std::filesystem::create_directories(args.dir);
  RunResult run;
  int rc = 0;
  if (args.workload == "paper_delete") {
    PaperDelete workload;
    rc = RunBatch(&workload, args, &run);
  } else if (args.workload == "forget_cascade") {
    ForgetCascade workload;
    rc = RunBatch(&workload, args, &run);
  } else if (args.workload == "served_mix") {
    rc = RunServed(args, &run);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::remove_all(args.dir);
  if (rc != 0) return rc;

  std::vector<double> latency = run.latency_ms;
  std::sort(latency.begin(), latency.end());
  std::vector<double> setup = run.setup_s;
  std::sort(setup.begin(), setup.end());
  if (latency.empty()) run.Wrong("no statement was measured");

  std::string metrics;
  if (!args.trace) {
    AppendMetric(&metrics, "latency_ms", Quantile(latency, 0.5), "ms");
    AppendMetric(&metrics, "tail_ms", Quantile(latency, 0.9), "ms");
    AppendMetric(&metrics, "setup_s", Quantile(setup, 0.5), "s");
  } else {
    if (args.workload != "served_mix") {
      // Batch layers are sums over the measured statements: report means.
      double n = std::max<double>(static_cast<double>(latency.size()), 1.0);
      for (auto& [name, value] : run.layers) value /= n;
    }
    int64_t fetches = run.bp_hits + run.bp_misses;
    run.layers["bp_hit_pct"] =
        fetches == 0 ? 0.0
                     : 100.0 * static_cast<double>(run.bp_hits) /
                           static_cast<double>(fetches);
    for (const LayerMetric& m : kLayerMetrics) {
      AppendMetric(&metrics, m.name, run.layers[m.name], m.unit);
    }
  }
  std::string setups;
  for (double s : run.setup_s) setups += " " + std::to_string(s);
  std::fprintf(stderr,
               "%s: %zu measured statements, median %.3f ms, p90 %.3f ms, "
               "set-ups (s):%s%s%s\n",
               args.workload.c_str(), latency.size(), Quantile(latency, 0.5),
               Quantile(latency, 0.9), setups.c_str(),
               run.first_error.empty() ? "" : "; FAILED: ",
               run.first_error.c_str());
  // A wrong answer is a result too: it is reported as "correct": false.
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {%s}}\n",
              run.correct ? "true" : "false", run.attempted, run.failed,
              metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perf
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::perf::Main(argc, argv); }
