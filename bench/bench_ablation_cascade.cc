// Ablation for the two-phase cascade engine on a "forget user X" workload.
//
// A deep multi-table schema — USERS referenced by ORDERS, SESSIONS, POSTS,
// COMMENTS and LIKES (all CASCADE), ORDERS referenced by EVENTS — forgets 1%
// of its users, keyed on the users' external id (NOT the primary key, so
// deriving the referenced USERS.A values needs the rid-sort + fetch pass).
// Three executions of the same statement:
//
//   shared-sort     — the engine's default: ONE doomed-rid derivation and
//                     ONE fetch pass project every FK-referenced column
//                     (DatabaseOptions::fk_shared_sort = true)
//   per-FK-naive    — re-derive the doomed set per referencing FK, the
//                     pre-refactor behavior (fk_shared_sort = false);
//                     phase ordering is identical, only derivation differs
//   row-at-a-time   — DELETE each user through the row DML path, cascades
//                     resolved per parent row (the traditional baseline)
//
// The shared-sort plan must charge fewer simulated page transfers than the
// per-FK-naive plan by at least kMinSharedAdvantage; the run FAILS below
// that bar, so CI holds the line on the shared derivation.
//
// With --trace-out, the shared-sort record carries the ratio as extra
// `ratio` (re-checked by tools/bench_smoke_summary.py).

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace bulkdel {
namespace bench {
namespace {

/// Minimum (per-FK-naive cost) / (shared-sort cost) ratio in simulated page
/// transfers. USERS carries five referencing FKs, so the naive plan pays
/// the rid-derivation + fetch pass five times where shared pays once.
/// Simulated I/O is deterministic — the margin is a stable gate, not a
/// noisy benchmark threshold.
constexpr double kMinSharedAdvantage = 1.10;

constexpr double kForgetFraction = 0.01;

struct VariantResult {
  uint64_t users_deleted = 0;
  uint64_t cascaded_rows = 0;
  IoStats io;
  int64_t wall_micros = 0;
  /// The statement's report; absent for the row-at-a-time loop.
  std::optional<BulkDeleteReport> report;
};

/// Builds the forget-me schema: per user, 2 orders + 2 sessions + 1 post +
/// 1 comment + 1 like, plus 2 events per order — 12 rows per user across
/// seven tables, five of them referencing USERS directly.
Status BuildForgetDb(const BenchConfig& config, size_t memory,
                     bool fk_shared_sort, int64_t n_users,
                     std::unique_ptr<Database>* out) {
  DatabaseOptions options;
  options.memory_budget_bytes = memory;
  options.exec_threads = config.exec_threads;
  options.fk_shared_sort = fk_shared_sort;
  auto db = Database::Create(options);
  BULKDEL_RETURN_IF_ERROR(db.status());
  *out = std::move(db).TakeValue();
  Database* d = out->get();

  Schema schema = *Schema::PaperStyle(3, config.tuple_size);
  for (const char* t : {"USERS", "ORDERS", "SESSIONS", "POSTS", "COMMENTS",
                        "LIKES", "EVENTS"}) {
    BULKDEL_RETURN_IF_ERROR(d->CreateTable(t, schema).status());
    BULKDEL_RETURN_IF_ERROR(d->CreateIndex(t, "A", {.unique = true}).status());
  }
  // The statement keys on the users' external id, not the primary key.
  BULKDEL_RETURN_IF_ERROR(d->CreateIndex("USERS", "B", {.unique = true})
                              .status());
  for (const char* t : {"ORDERS", "SESSIONS", "POSTS", "COMMENTS", "LIKES",
                        "EVENTS"}) {
    BULKDEL_RETURN_IF_ERROR(d->CreateIndex(t, "B").status());
  }

  for (int64_t u = 0; u < n_users; ++u) {
    // ext_id deliberately decorrelated from id: the doomed rid set is
    // scattered, so the derivation's sort actually earns its keep.
    int64_t ext = (u * 2654435761LL) % (n_users * 64) + 1000000;
    BULKDEL_RETURN_IF_ERROR(d->InsertRow("USERS", {u, ext, u * 7}).status());
    for (int64_t o = 2 * u; o < 2 * u + 2; ++o) {
      BULKDEL_RETURN_IF_ERROR(d->InsertRow("ORDERS", {o, u, o * 5}).status());
      for (int64_t e = 2 * o; e < 2 * o + 2; ++e) {
        BULKDEL_RETURN_IF_ERROR(
            d->InsertRow("EVENTS", {e, o, e * 11}).status());
      }
    }
    for (int64_t s = 2 * u; s < 2 * u + 2; ++s) {
      BULKDEL_RETURN_IF_ERROR(d->InsertRow("SESSIONS", {s, u, s * 3}).status());
    }
    BULKDEL_RETURN_IF_ERROR(d->InsertRow("POSTS", {u, u, u * 13}).status());
    BULKDEL_RETURN_IF_ERROR(
        d->InsertRow("COMMENTS", {u, u, u * 17}).status());
    BULKDEL_RETURN_IF_ERROR(d->InsertRow("LIKES", {u, u, u * 19}).status());
  }
  for (const char* t : {"ORDERS", "SESSIONS", "POSTS", "COMMENTS", "LIKES"}) {
    BULKDEL_RETURN_IF_ERROR(
        d->AddForeignKey(t, "B", "USERS", "A", FkAction::kCascade));
  }
  BULKDEL_RETURN_IF_ERROR(
      d->AddForeignKey("EVENTS", "B", "ORDERS", "A", FkAction::kCascade));
  return d->Checkpoint();
}

/// The doomed users' external ids: every (1/fraction)-th user.
std::vector<int64_t> ForgottenExtIds(int64_t n_users,
                                     std::vector<int64_t>* user_ids) {
  int64_t stride = static_cast<int64_t>(1.0 / kForgetFraction);
  std::vector<int64_t> ext_ids;
  for (int64_t u = 0; u < n_users; u += stride) {
    ext_ids.push_back((u * 2654435761LL) % (n_users * 64) + 1000000);
    if (user_ids != nullptr) user_ids->push_back(u);
  }
  return ext_ids;
}

uint64_t TotalRows(Database* db) {
  uint64_t total = 0;
  for (const char* t : {"USERS", "ORDERS", "SESSIONS", "POSTS", "COMMENTS",
                        "LIKES", "EVENTS"}) {
    total += db->GetTable(t)->table->tuple_count();
  }
  return total;
}

int Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  size_t memory = config.ScaledMemoryBytes(5.0);
  int64_t n_users = static_cast<int64_t>(config.n_tuples / 12);
  if (n_users < 200) n_users = 200;
  std::printf(
      "Ablation: forget %.0f%% of %lld users across USERS -> {ORDERS -> "
      "EVENTS, SESSIONS, POSTS, COMMENTS, LIKES}\n",
      kForgetFraction * 100.0, static_cast<long long>(n_users));

  const char* names[] = {"shared-sort", "per-FK-naive", "row-at-a-time"};
  VariantResult results[3];
  for (int variant = 0; variant < 3; ++variant) {
    std::unique_ptr<Database> db;
    Status s = BuildForgetDb(config, memory, /*fk_shared_sort=*/variant == 0,
                             n_users, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      return 1;
    }
    std::vector<int64_t> user_ids;
    std::vector<int64_t> ext_ids = ForgottenExtIds(n_users, &user_ids);
    uint64_t rows_before = TotalRows(db.get());

    db->disk().ResetStats();
    IoStats before = db->disk().stats();
    int64_t wall_micros = 0;
    uint64_t users_deleted = 0;
    uint64_t cascaded = 0;
    std::optional<BulkDeleteReport> statement;
    if (variant < 2) {
      BulkDeleteSpec spec;
      spec.table = "USERS";
      spec.key_column = "B";
      spec.keys = ext_ids;
      auto report = db->BulkDelete(spec, Strategy::kOptimizer);
      if (!report.ok()) {
        std::fprintf(stderr, "run: %s\n", report.status().ToString().c_str());
        return 1;
      }
      users_deleted = report->rows_deleted;
      cascaded = report->cascaded_rows;
      wall_micros = report->wall_micros;
      statement = std::move(report).TakeValue();
    } else {
      // Traditional: one row DML per user, cascade fan-out per statement.
      auto t0 = std::chrono::steady_clock::now();
      for (int64_t u : user_ids) {
        auto rids = db->GetIndex("USERS", "A")->tree->Search(u);
        if (!rids.ok() || rids->empty()) {
          std::fprintf(stderr, "run: lost user %lld\n",
                       static_cast<long long>(u));
          return 1;
        }
        Status del = db->DeleteRow("USERS", rids->at(0));
        if (!del.ok()) {
          std::fprintf(stderr, "run: %s\n", del.ToString().c_str());
          return 1;
        }
        ++users_deleted;
      }
      wall_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      cascaded = rows_before - TotalRows(db.get()) - users_deleted;
    }
    IoStats io = db->disk().stats() - before;
    results[variant] = {users_deleted, cascaded, io, wall_micros,
                        std::move(statement)};
    std::printf(
        "%-14s users=%llu cascaded=%llu reads=%lld writes=%lld sim=%.2f "
        "min  wall=%.0f ms\n",
        names[variant], static_cast<unsigned long long>(users_deleted),
        static_cast<unsigned long long>(cascaded),
        static_cast<long long>(io.reads), static_cast<long long>(io.writes),
        static_cast<double>(io.simulated_micros) / 60e6,
        static_cast<double>(wall_micros) / 1000.0);
  }

  for (int variant = 1; variant < 3; ++variant) {
    if (results[variant].users_deleted != results[0].users_deleted ||
        results[variant].cascaded_rows != results[0].cascaded_rows) {
      std::fprintf(stderr,
                   "FAIL: %s deleted %llu users / %llu cascaded, "
                   "shared-sort deleted %llu / %llu — the plans disagree\n",
                   names[variant],
                   static_cast<unsigned long long>(
                       results[variant].users_deleted),
                   static_cast<unsigned long long>(
                       results[variant].cascaded_rows),
                   static_cast<unsigned long long>(results[0].users_deleted),
                   static_cast<unsigned long long>(results[0].cascaded_rows));
      return 1;
    }
  }
  int64_t shared_cost = results[0].io.reads + results[0].io.writes;
  int64_t naive_cost = results[1].io.reads + results[1].io.writes;
  double ratio = shared_cost == 0 ? 0.0
                                  : static_cast<double>(naive_cost) /
                                        static_cast<double>(shared_cost);
  std::printf(
      "\nshared-sort: %lld page transfers; per-FK-naive: %lld (%.2fx); "
      "row-at-a-time: %lld\n",
      static_cast<long long>(shared_cost), static_cast<long long>(naive_cost),
      ratio,
      static_cast<long long>(results[2].io.reads + results[2].io.writes));
  if (shared_cost == 0 || ratio < kMinSharedAdvantage) {
    std::fprintf(stderr,
                 "FAIL: the shared-sort cascade plan must charge at least "
                 "%.2fx fewer simulated transfers than per-FK-naive "
                 "(got %.2fx)\n",
                 kMinSharedAdvantage, ratio);
    return 1;
  }
  for (int variant = 0; variant < 3; ++variant) {
    const VariantResult& r = results[variant];
    BenchRecord record;
    record.series = names[variant];
    record.x = "1% of users";
    record.memory_bytes = memory;
    if (r.report.has_value()) {
      record.report = &*r.report;
    } else {
      record.io = r.io;
      record.wall_micros = r.wall_micros;
    }
    record.extra = {{"users_deleted", static_cast<double>(r.users_deleted)},
                    {"cascaded_rows", static_cast<double>(r.cascaded_rows)}};
    if (variant == 0) record.extra.emplace_back("ratio", ratio);
    WriteRecord(config, record);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace bulkdel

int main(int argc, char** argv) { return bulkdel::bench::Run(argc, argv); }
