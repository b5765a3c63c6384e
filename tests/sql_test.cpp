// The SQL front end for the paper's statement class.

#include "core/sql.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "core/database.h"
#include "obs/slow_query_log.h"
#include "obs/statement_registry.h"
#include "util/json.h"

namespace bulkdel {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() {
    DatabaseOptions options;
    options.memory_budget_bytes = 256 * 1024;
    db_ = *Database::Create(options);
    Schema schema = *Schema::PaperStyle(3, 64);
    EXPECT_TRUE(db_->CreateTable("R", schema).ok());
    EXPECT_TRUE(db_->CreateIndex("R", "A", {.unique = true}).ok());
    EXPECT_TRUE(db_->CreateIndex("R", "B").ok());
    for (int64_t i = 0; i < 1000; ++i) {
      EXPECT_TRUE(db_->InsertRow("R", {i, i * 2, i * 3}).ok());
    }
    // Table D with the keys 0, 10, 20, ..., 90.
    Schema d_schema = *Schema::PaperStyle(1, 0);
    EXPECT_TRUE(db_->CreateTable("D", d_schema).ok());
    for (int64_t k = 0; k < 100; k += 10) {
      EXPECT_TRUE(db_->InsertRow("D", {k}).ok());
    }
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SqlTest, InLiteralList) {
  auto spec = ParseBulkDelete(db_.get(), "DELETE FROM R WHERE A IN (1, 2, 3)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->table, "R");
  EXPECT_EQ(spec->key_column, "A");
  EXPECT_EQ(spec->keys, (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(SqlTest, NegativeLiteralsAndSemicolon) {
  auto spec =
      ParseBulkDelete(db_.get(), "delete from R where A in (-5, 7);");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->keys, (std::vector<int64_t>{-5, 7}));
}

TEST_F(SqlTest, InSubquery) {
  auto spec = ParseBulkDelete(
      db_.get(), "DELETE FROM R WHERE R_A IN (SELECT A FROM D)");
  EXPECT_FALSE(spec.ok());  // no column R_A
  spec = ParseBulkDelete(db_.get(),
                         "DELETE FROM R WHERE A IN (SELECT A FROM D)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->keys.size(), 10u);
}

TEST_F(SqlTest, Between) {
  // BETWEEN parses to a first-class range predicate — no point-key
  // expansion, no extraction scan at parse time.
  auto spec =
      ParseBulkDelete(db_.get(), "DELETE FROM R WHERE A BETWEEN 100 AND 109");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->is_range());
  EXPECT_EQ(spec->range_lo, 100);
  EXPECT_EQ(spec->range_hi, 109);
  EXPECT_TRUE(spec->keys.empty());
  EXPECT_TRUE(spec->keys_sorted);
}

TEST_F(SqlTest, BetweenWithoutIndexFallsBackToScan) {
  // A range on a non-indexed column still parses to a range spec; the
  // executor evaluates the predicate with a scan at execution time.
  auto spec =
      ParseBulkDelete(db_.get(), "DELETE FROM R WHERE C BETWEEN 0 AND 29");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->is_range());
  EXPECT_EQ(spec->range_lo, 0);
  EXPECT_EQ(spec->range_hi, 29);
  auto report = ExecuteSql(db_.get(), "DELETE FROM R WHERE C BETWEEN 0 AND 29",
                           Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, 10u);  // C = 3i, i in [0, 9]
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(SqlTest, Errors) {
  EXPECT_FALSE(ParseBulkDelete(db_.get(), "SELECT * FROM R").ok());
  EXPECT_FALSE(ParseBulkDelete(db_.get(), "DELETE FROM nope WHERE A IN (1)")
                   .ok());
  EXPECT_FALSE(ParseBulkDelete(db_.get(), "DELETE FROM R WHERE Z IN (1)")
                   .ok());
  EXPECT_FALSE(ParseBulkDelete(db_.get(), "DELETE FROM R WHERE A IN (1,)")
                   .ok());
  EXPECT_FALSE(ParseBulkDelete(db_.get(), "DELETE FROM R WHERE A IN (1) x")
                   .ok());
  EXPECT_FALSE(
      ParseBulkDelete(db_.get(), "DELETE FROM R WHERE A BETWEEN 1").ok());
  EXPECT_FALSE(ParseBulkDelete(
                   db_.get(), "DELETE FROM R WHERE A IN (SELECT A FROM nope)")
                   .ok());
}

TEST_F(SqlTest, ExecuteStatementFullSession) {
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  auto db = *Database::Create(options);

  auto run = [&](const std::string& s) {
    auto r = ExecuteStatement(db.get(), s);
    EXPECT_TRUE(r.ok()) << s << " -> " << r.status().ToString();
    return r.ok() ? *r : std::string();
  };
  run("CREATE TABLE T (A INT, B INT, PAD CHAR(16))");
  run("CREATE UNIQUE INDEX ON T (A)");
  run("CREATE INDEX ON T (B) PRIORITY 3");
  for (int64_t i = 0; i < 50; ++i) {
    run("INSERT INTO T VALUES (" + std::to_string(i) + ", " +
        std::to_string(i * 2) + ")");
  }
  EXPECT_EQ(run("SELECT COUNT(*) FROM T"), "count = 50");
  EXPECT_NE(run("EXPLAIN DELETE FROM T WHERE A BETWEEN 0 AND 9")
                .find("BulkDeletePlan"),
            std::string::npos);
  EXPECT_EQ(run("SELECT COUNT(*) FROM T"), "count = 50");  // EXPLAIN ran nothing
  std::string deleted = run("DELETE FROM T WHERE A BETWEEN 0 AND 9");
  EXPECT_NE(deleted.find("deleted 10 row(s)"), std::string::npos) << deleted;
  EXPECT_EQ(run("SELECT COUNT(*) FROM T"), "count = 40");
  EXPECT_NE(run("SELECT COUNT(*) FROM T WHERE B BETWEEN 20 AND 40")
                .find("count = 11"),
            std::string::npos);
  ASSERT_TRUE(db->VerifyIntegrity().ok());
}

// A DELETE that cascades reports the per-table attribution inline — "forget
// user X" answers show where the collateral rows went — and the report's
// phase trace carries the fk-plan and cascade:<table> labels that
// sys.statements surfaces while the statement runs.
TEST_F(SqlTest, DeleteCascadeSummaryLineAndPhases) {
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  auto db = *Database::Create(options);
  Schema schema = *Schema::PaperStyle(2, 32);
  ASSERT_TRUE(db->CreateTable("USERS", schema).ok());
  ASSERT_TRUE(db->CreateIndex("USERS", "A", {.unique = true}).ok());
  ASSERT_TRUE(db->CreateTable("ORD", schema).ok());
  ASSERT_TRUE(db->CreateIndex("ORD", "A", {.unique = true}).ok());
  ASSERT_TRUE(db->CreateIndex("ORD", "B").ok());
  for (int64_t u = 0; u < 20; ++u) {
    ASSERT_TRUE(db->InsertRow("USERS", {u, u * 2}).ok());
    ASSERT_TRUE(db->InsertRow("ORD", {2 * u, u}).ok());
    ASSERT_TRUE(db->InsertRow("ORD", {2 * u + 1, u}).ok());
  }
  ASSERT_TRUE(
      db->AddForeignKey("ORD", "B", "USERS", "A", FkAction::kCascade).ok());

  auto line = ExecuteStatement(db.get(), "DELETE FROM USERS WHERE A IN (3, 7)");
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_NE(line->find("deleted 2 row(s)"), std::string::npos) << *line;
  EXPECT_NE(line->find("cascaded 4 row(s) (ORD: 4)"), std::string::npos)
      << *line;

  // Same statement class through ExecuteSql: the report's phase trace must
  // carry the planning phase and every pass of the ORD leg, named
  // cascade:<table>/<pass>, next to the parent's own passes.
  auto report = ExecuteSql(db.get(), "DELETE FROM USERS WHERE A IN (11, 12)",
                           Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, 2u);
  EXPECT_EQ(report->cascaded_rows, 4u);
  std::set<std::string> phases;
  for (const PhaseStats& phase : report->phases) phases.insert(phase.name);
  for (const char* name :
       {"fk-plan", "cascade:ORD/index:ORD.B", "cascade:ORD/table",
        "cascade:ORD/index:ORD.A", "index:USERS.A", "table", "finalize"}) {
    EXPECT_EQ(phases.count(name), 1u) << name << "\n" << report->ToString();
  }
  // A DELETE with nothing to cascade keeps the plain result line.
  auto plain = ExecuteStatement(db.get(), "DELETE FROM ORD WHERE A IN (40)");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->find("cascaded"), std::string::npos) << *plain;
  ASSERT_TRUE(db->VerifyIntegrity().ok());
}

TEST_F(SqlTest, ExecuteStatementErrors) {
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  auto db = *Database::Create(options);
  EXPECT_FALSE(ExecuteStatement(db.get(), "DROP TABLE x").ok());
  EXPECT_FALSE(ExecuteStatement(db.get(), "CREATE VIEW v").ok());
  EXPECT_FALSE(ExecuteStatement(db.get(), "CREATE TABLE T (A FLOAT)").ok());
  EXPECT_FALSE(ExecuteStatement(db.get(), "INSERT INTO nope VALUES (1)").ok());
  EXPECT_FALSE(ExecuteStatement(db.get(), "SELECT * FROM nope").ok());
  EXPECT_FALSE(ExecuteStatement(db.get(), "EXPLAIN").ok());
}

// Error paths a network server depends on: every malformed or out-of-bounds
// statement must come back as a typed Status — never an abort — and leave
// the database usable.
TEST_F(SqlTest, MalformedStatementsAreInvalidArgument) {
  for (const char* bad :
       {"", ";", "DELETE", "DELETE FROM", "DELETE FROM R",
        "DELETE FROM R WHERE", "DELETE FROM R WHERE A",
        "DELETE FROM R WHERE A IN", "DELETE FROM R WHERE A IN (",
        "DELETE FROM R WHERE A IN (1,", "DELETE FROM R WHERE A IN (1 2)",
        "DELETE FROM R WHERE A BETWEEN 1", "DELETE FROM R WHERE A = 5",
        "INSERT INTO R", "INSERT INTO R VALUES", "INSERT INTO R VALUES (",
        "SELECT * FROM R", "SELECT COUNT(*) FROM R WHERE A > 5",
        "SET", "SET STRATEGY", "SHOW", "DROP", "DROP INDEX ON R",
        "CREATE", "@#$%", "DELETE FROM R WHERE A IN (SELECT)",
        "DELETE FROM R WHERE A IN (SELECT A FROM)"}) {
    SqlSession session;
    auto r = ExecuteStatement(db_.get(), &session, bad);
    EXPECT_FALSE(r.ok()) << "accepted: \"" << bad << "\"";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << bad << " -> " << r.status().ToString();
    EXPECT_EQ(session.statements, 0u);
  }
  // The database is still fully usable after all of that.
  EXPECT_TRUE(ExecuteStatement(db_.get(), "SELECT COUNT(*) FROM R").ok());
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(SqlTest, UnknownTableAndIndexAreNotFound) {
  struct Case {
    const char* statement;
    StatusCode code;
  } cases[] = {
      {"DELETE FROM nope WHERE A IN (1)", StatusCode::kNotFound},
      {"DELETE FROM R WHERE Z IN (1)", StatusCode::kNotFound},
      {"DELETE FROM R WHERE A IN (SELECT A FROM nope)", StatusCode::kNotFound},
      {"DELETE FROM R WHERE A IN (SELECT Z FROM D)", StatusCode::kNotFound},
      {"SELECT COUNT(*) FROM nope", StatusCode::kNotFound},
      {"SELECT COUNT(*) FROM R WHERE Z BETWEEN 1 AND 2", StatusCode::kNotFound},
      {"INSERT INTO nope VALUES (1)", StatusCode::kNotFound},
      {"DROP INDEX ON nope (A)", StatusCode::kNotFound},
      {"DROP INDEX ON R (PAD)", StatusCode::kNotFound},
      {"EXPLAIN DELETE FROM nope WHERE A IN (1)", StatusCode::kNotFound},
  };
  for (const Case& c : cases) {
    auto r = ExecuteStatement(db_.get(), c.statement);
    ASSERT_FALSE(r.ok()) << c.statement;
    EXPECT_EQ(r.status().code(), c.code)
        << c.statement << " -> " << r.status().ToString();
  }
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(SqlTest, OversizedInListIsResourceExhausted) {
  SqlSession session;
  session.max_delete_keys = 5;
  // Literal list over the bound: refused before any key extraction work.
  auto r = ExecuteStatement(db_.get(), &session,
                            "DELETE FROM R WHERE A IN (1, 2, 3, 4, 5, 6)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  // Subquery (D holds 10 keys) hits the same bound — enforced during the
  // extraction scan itself, before a full list is ever built.
  r = ExecuteStatement(db_.get(), &session,
                       "DELETE FROM R WHERE A IN (SELECT A FROM D)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // Nothing was deleted by the refused statements; in-bounds ones work.
  EXPECT_EQ(*ExecuteStatement(db_.get(), "SELECT COUNT(*) FROM R"),
            "count = 1000");
  r = ExecuteStatement(db_.get(), &session,
                       "DELETE FROM R WHERE A IN (1, 2, 3)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(session.statements, 1u);
  // BETWEEN is a first-class range predicate: it never expands into a key
  // list, so the session key bound does not apply — a sliding-window delete
  // over a wide range must not error.
  r = ExecuteStatement(db_.get(), &session,
                       "DELETE FROM R WHERE A BETWEEN 0 AND 99");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*ExecuteStatement(db_.get(), "SELECT COUNT(*) FROM R"),
            "count = 900");  // 1000 - 3 (IN list) - 97 still in [0, 99]
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(SqlTest, SessionStrategyAndDropIndex) {
  SqlSession session;
  EXPECT_EQ(*ExecuteStatement(db_.get(), &session, "SHOW STRATEGY"),
            "strategy = optimizer");
  auto r = ExecuteStatement(db_.get(), &session, "SET STRATEGY warp-drive");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(
      ExecuteStatement(db_.get(), &session, "SET STRATEGY vertical-hash")
          .ok());
  EXPECT_EQ(*ExecuteStatement(db_.get(), &session, "SHOW STRATEGY"),
            "strategy = vertical-hash");
  // Another session is unaffected.
  SqlSession other;
  EXPECT_EQ(*ExecuteStatement(db_.get(), &other, "SHOW STRATEGY"),
            "strategy = optimizer");
  ASSERT_TRUE(
      ExecuteStatement(db_.get(), &session, "DROP INDEX ON R (B)").ok());
  EXPECT_EQ(db_->GetIndex("R", "B"), nullptr);
  EXPECT_FALSE(
      ExecuteStatement(db_.get(), &session, "DROP INDEX ON R (B)").ok());
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

// ---------------------------------------------------------------------------
// sys.* virtual tables + SHOW sugar + slow-query capture
// ---------------------------------------------------------------------------

/// sys.sessions / sys.statements read process-global state; each test starts
/// and ends from a clean registry so ordering does not leak between tests.
struct RegistryReset {
  RegistryReset() { obs::StatementRegistry::Global().Reset(); }
  ~RegistryReset() { obs::StatementRegistry::Global().Reset(); }
};

TEST_F(SqlTest, SysMetricsAndHistogramsSelect) {
  RegistryReset reset;
  // Generate some metric traffic first so value columns are nonzero.
  ASSERT_TRUE(
      ExecuteStatement(db_.get(), "DELETE FROM R WHERE A IN (1, 2, 3)").ok());
  auto r = ExecuteStatement(db_.get(), "SELECT * FROM sys.metrics");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Header row then one row per registered metric, counters and histograms.
  EXPECT_NE(r->find("name"), std::string::npos) << *r;
  EXPECT_NE(r->find("kind"), std::string::npos);
  EXPECT_NE(r->find("sched.phases_dispatched"), std::string::npos) << *r;
  EXPECT_NE(r->find("bp.fetch_ns"), std::string::npos);
  EXPECT_NE(r->find("net.conns"), std::string::npos);

  // Nonzero buckets (and only those) show as per-bucket rows with their
  // (lo, hi] edges and cumulative counts.
  db_->metrics().histogram(obs::metric_names::kWalSyncRecords)->Observe(5);
  r = ExecuteStatement(db_.get(), "SELECT * FROM sys.histograms");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("bucket"), std::string::npos) << *r;
  EXPECT_NE(r->find("cum"), std::string::npos);
  EXPECT_NE(r->find("wal.sync_records"), std::string::npos) << *r;
}

TEST_F(SqlTest, SysSessionsAndStatementsSelect) {
  RegistryReset reset;
  obs::StatementRegistry& reg = obs::StatementRegistry::Global();
  SqlSession session;
  session.session_id = reg.RegisterSession("test:1");
  ASSERT_TRUE(ExecuteStatement(db_.get(), &session,
                               "DELETE FROM R WHERE A IN (10, 11)")
                  .ok());
  auto r = ExecuteStatement(db_.get(), &session, "SELECT * FROM sys.sessions");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("test:1"), std::string::npos) << *r;

  r = ExecuteStatement(db_.get(), &session, "SELECT * FROM sys.statements");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The finished DELETE is in the recent ring with its row count; the
  // SELECT itself shows as in-flight (state "run").
  EXPECT_NE(r->find("DELETE FROM R WHERE A IN (10, 11)"), std::string::npos)
      << *r;
  EXPECT_NE(r->find("ok"), std::string::npos);
  EXPECT_NE(r->find("run"), std::string::npos) << *r;
  EXPECT_NE(r->find("SELECT * FROM sys.statements"), std::string::npos);
  reg.UnregisterSession(session.session_id);
}

TEST_F(SqlTest, ShowMetricsAndSessionsAreSysSugar) {
  RegistryReset reset;
  auto show = ExecuteStatement(db_.get(), "SHOW METRICS");
  auto select = ExecuteStatement(db_.get(), "SELECT * FROM sys.metrics");
  ASSERT_TRUE(show.ok()) << show.status().ToString();
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ(*show, *select);
  auto sessions = ExecuteStatement(db_.get(), "SHOW SESSIONS");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  EXPECT_NE(sessions->find("session"), std::string::npos) << *sessions;
}

TEST_F(SqlTest, SysSelectTypedErrors) {
  // Unknown sys table: NotFound naming the known ones.
  auto r = ExecuteStatement(db_.get(), "SELECT * FROM sys.nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("sys.metrics"), std::string::npos);
  // SELECT * over a data table stays unsupported, with a typed error.
  r = ExecuteStatement(db_.get(), "SELECT * FROM R");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Bad SHOW argument names all three options.
  r = ExecuteStatement(db_.get(), "SHOW GIBBERISH");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find("SESSIONS"), std::string::npos)
      << r.status().ToString();
}

TEST_F(SqlTest, SlowQueryCaptureWritesParseableRecordsWithReports) {
  RegistryReset reset;
  std::string path = ::testing::TempDir() + "/sql_slow_query_test.jsonl";
  std::remove(path.c_str());
  obs::SlowQueryLog log(path, 1);  // 1 ns: every statement is "slow"
  ASSERT_TRUE(log.enabled()) << log.open_status().ToString();
  SqlSession session;
  session.session_id = obs::StatementRegistry::Global().RegisterSession("t");
  session.slow_log = &log;
  ASSERT_TRUE(ExecuteStatement(db_.get(), &session,
                               "DELETE FROM R WHERE A IN (20, 21, 22)")
                  .ok());
  // Failed statements are captured too, with their error text.
  EXPECT_FALSE(
      ExecuteStatement(db_.get(), &session, "DELETE FROM nope WHERE A IN (1)")
          .ok());
  obs::StatementRegistry::Global().UnregisterSession(session.session_id);
  EXPECT_EQ(log.records(), 2u);

  std::ifstream in(path);
  std::string line;
  int deletes_with_report = 0, errors = 0;
  while (std::getline(in, line)) {
    auto rec = json::Parse(line);
    ASSERT_TRUE(rec.ok()) << line;
    EXPECT_GT(rec->IntOr("elapsed_ns"), 0);
    EXPECT_EQ(rec->IntOr("threshold_ns"), 1);
    const json::Value* report = rec->Find("report");
    if (report != nullptr) {
      ++deletes_with_report;
      // The embedded BulkDeleteReport carries the phase spans tracecat
      // consumes and the simulated I/O totals.
      EXPECT_NE(report->Find("phases"), nullptr) << line;
      const json::Value* io = report->Find("io");
      ASSERT_NE(io, nullptr);
      // A 3-key delete may be fully cached (0 reads); the totals just have
      // to be present and sane.
      EXPECT_NE(io->Find("reads"), nullptr) << line;
      EXPECT_GE(io->IntOr("simulated_micros"), 0);
    }
    if (rec->Find("error") != nullptr) ++errors;
  }
  EXPECT_EQ(deletes_with_report, 1);
  EXPECT_EQ(errors, 1);
  std::remove(path.c_str());
}

TEST_F(SqlTest, PlaneOnOffSqlRunsAreMetricIdentical) {
  // The full plane (session registration + attribution + slow-query capture)
  // must not change what the engine does: two identical statement streams,
  // one under the plane and one bare, land on identical deterministic
  // counters and identical data.
  RegistryReset reset;
  std::string path = ::testing::TempDir() + "/sql_plane_identity.jsonl";
  std::remove(path.c_str());
  auto run = [&](bool plane) {
    DatabaseOptions options;
    options.memory_budget_bytes = 256 * 1024;
    auto db = *Database::Create(options);
    obs::SlowQueryLog log(path, plane ? 1 : 0);
    SqlSession session;
    if (plane) {
      session.session_id =
          obs::StatementRegistry::Global().RegisterSession("t");
      session.slow_log = &log;
    }
    auto exec = [&](const std::string& s) {
      auto r = ExecuteStatement(db.get(), &session, s);
      EXPECT_TRUE(r.ok()) << s << " -> " << r.status().ToString();
    };
    exec("CREATE TABLE T (A INT, B INT)");
    exec("CREATE UNIQUE INDEX ON T (A)");
    exec("CREATE INDEX ON T (B)");
    for (int64_t i = 0; i < 200; ++i) {
      exec("INSERT INTO T VALUES (" + std::to_string(i) + ", " +
           std::to_string(i % 7) + ")");
    }
    exec("DELETE FROM T WHERE A BETWEEN 50 AND 149");
    auto count = ExecuteStatement(db.get(), &session, "SELECT COUNT(*) FROM T");
    EXPECT_TRUE(count.ok());
    if (plane) {
      obs::StatementRegistry::Global().UnregisterSession(session.session_id);
      EXPECT_GT(log.records(), 0u);
    }
    obs::MetricsSnapshot snap = db->metrics().Snapshot();
    return std::make_pair(count.ok() ? *count : std::string(), snap);
  };
  auto [count_off, off] = run(false);
  auto [count_on, on] = run(true);
  EXPECT_EQ(count_off, "count = 100");
  EXPECT_EQ(count_on, count_off);
  for (const char* name :
       {"sched.phases_dispatched", "ckpt.inline", "ckpt.deferred",
        "leaf.pages_reorganized", "disk.write_runs", "disk.syncs"}) {
    EXPECT_EQ(off.CounterOr(name), on.CounterOr(name)) << name;
  }
  std::remove(path.c_str());
}

TEST_F(SqlTest, ExecuteSqlEndToEnd) {
  auto report = ExecuteSql(
      db_.get(), "DELETE FROM R WHERE A IN (SELECT A FROM D)");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, 10u);
  EXPECT_EQ(db_->GetTable("R")->table->tuple_count(), 990u);
  EXPECT_TRUE(db_->GetIndex("R", "A")->tree->Search(50)->empty());
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_F(SqlTest, ExecuteSqlBetweenDeletesRange) {
  auto report = ExecuteSql(
      db_.get(), "DELETE FROM R WHERE A BETWEEN 500 AND 999",
      Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, 500u);
  ASSERT_TRUE(db_->VerifyIntegrity().ok());
}

}  // namespace
}  // namespace bulkdel
