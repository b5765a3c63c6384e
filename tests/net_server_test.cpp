// The multi-client SQL server (docs/SERVER.md): session lifecycle, bounded
// admission, per-session state isolation, protocol error handling, graceful
// drain, and the §3.1 acceptance test — N concurrent connections running DML
// while a bulk delete holds secondary indices off-line must leave the exact
// logical state a serial replay of the same acknowledged statements leaves.

#include "net/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/sql.h"
#include "fault/crash_sweep.h"
#include "net/client.h"
#include "util/json.h"

namespace bulkdel {
namespace net {
namespace {

std::unique_ptr<Database> MakeDb(DatabaseOptions options = {}) {
  if (options.memory_budget_bytes == DatabaseOptions{}.memory_budget_bytes) {
    options.memory_budget_bytes = 512 * 1024;
  }
  return *Database::Create(std::move(options));
}

/// One raw HTTP exchange against the /metrics endpoint: send `request`
/// verbatim, read to EOF (the server closes after each response).
std::string HttpExchange(uint16_t port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

std::string HttpGetMetrics(uint16_t port, const std::string& path) {
  return HttpExchange(
      port, "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

TEST(NetServer, StartStopIdempotent) {
  auto db = MakeDb();
  auto server = *Server::Start(db.get(), {});
  EXPECT_GT(server->port(), 0);
  EXPECT_TRUE(server->Stop().ok());
  EXPECT_TRUE(server->Stop().ok());  // second Stop is a no-op
  EXPECT_EQ(server->active_sessions(), 0);
}

TEST(NetServer, PingAndSqlRoundTrip) {
  auto db = MakeDb();
  auto server = *Server::Start(db.get(), {});
  auto client = *Client::Connect("127.0.0.1", server->port());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Execute("CREATE TABLE T (A INT, B INT)").ok());
  EXPECT_TRUE(client.Execute("CREATE UNIQUE INDEX ON T (A)").ok());
  for (int i = 0; i < 10; ++i) {
    auto r = client.Execute("INSERT INTO T VALUES (" + std::to_string(i) +
                            ", " + std::to_string(i * 2) + ")");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  auto count = client.Execute("SELECT COUNT(*) FROM T");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, "count = 10");
  auto del = client.Execute("DELETE FROM T WHERE A IN (1, 3, 5)");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->substr(0, 16), "deleted 3 row(s)");
  count = client.Execute("SELECT COUNT(*) FROM T");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, "count = 7");
  EXPECT_EQ(server->statements_served(), 15u);
}

TEST(NetServer, StatementErrorKeepsSessionUsable) {
  auto db = MakeDb();
  auto server = *Server::Start(db.get(), {});
  auto client = *Client::Connect("127.0.0.1", server->port());
  // Malformed SQL and unknown tables come back as typed statuses over the
  // wire; the connection survives all of them.
  auto r = client.Execute("FROBNICATE EVERYTHING");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  r = client.Execute("SELECT COUNT(*) FROM missing");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  r = client.Execute("DELETE FROM missing WHERE A IN (1)");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  r = client.Execute("");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(client.Ping().ok()) << "session should have survived";
}

TEST(NetServer, PerSessionStrategyIsolation) {
  auto db = MakeDb();
  auto server = *Server::Start(db.get(), {});
  auto a = *Client::Connect("127.0.0.1", server->port());
  auto b = *Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(a.Execute("SET STRATEGY vertical-hash").ok());
  auto shown = a.Execute("SHOW STRATEGY");
  ASSERT_TRUE(shown.ok());
  EXPECT_EQ(*shown, "strategy = vertical-hash");
  shown = b.Execute("SHOW STRATEGY");
  ASSERT_TRUE(shown.ok());
  EXPECT_EQ(*shown, "strategy = optimizer") << "b must not see a's SET";
  EXPECT_FALSE(a.Execute("SET STRATEGY warp-drive").ok());
}

TEST(NetServer, OversizedDeleteListIsCleanError) {
  auto db = MakeDb();
  ServerOptions options;
  options.max_delete_keys = 4;
  auto server = *Server::Start(db.get(), options);
  auto client = *Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.Execute("CREATE TABLE T (A INT)").ok());
  ASSERT_TRUE(client.Execute("CREATE UNIQUE INDEX ON T (A)").ok());
  auto r = client.Execute("DELETE FROM T WHERE A IN (1, 2, 3, 4, 5, 6)");
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  // In-bounds lists still work on the same connection.
  EXPECT_TRUE(client.Execute("DELETE FROM T WHERE A IN (1, 2)").ok());
}

TEST(NetServer, AdmissionBoundRejectsLoudly) {
  auto db = MakeDb();
  ServerOptions options;
  options.max_sessions = 1;
  auto server = *Server::Start(db.get(), options);
  auto first = *Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(first.Ping().ok());  // session 1 is established and admitted
  auto second = *Client::Connect("127.0.0.1", server->port());
  Status s = second.Ping();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  // Freeing the slot lets the next connection in.
  first.Close();
  for (int attempt = 0;; ++attempt) {
    auto next = Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(next.ok());
    if (next->Ping().ok()) break;
    ASSERT_LT(attempt, 100) << "slot never freed after disconnect";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(NetServer, OversizedFrameClosesSession) {
  auto db = MakeDb();
  ServerOptions options;
  options.max_frame_bytes = 128;
  auto server = *Server::Start(db.get(), options);
  auto client = *Client::Connect("127.0.0.1", server->port());
  auto r = client.Execute("SELECT COUNT(*) FROM " + std::string(300, 'x'));
  // The server answers with the framing error, then hangs up: the stream
  // cannot be re-synchronized after an invalid length.
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << r.status().ToString();
  EXPECT_FALSE(client.Ping().ok());
}

// Stop() must let an in-flight statement finish and deliver its response.
// A phase_begin_hook holds the bulk delete mid-statement until the test has
// called Stop() from another thread, making the race deterministic.
TEST(NetServer, GracefulShutdownDrainsInFlightStatement) {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false, release = false;
  DatabaseOptions db_options;
  db_options.memory_budget_bytes = 512 * 1024;
  db_options.phase_begin_hook = [&](const std::string&) {
    std::unique_lock<std::mutex> lock(mu);
    if (entered) return;  // only gate the first phase
    entered = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return release; });
  };
  auto db = MakeDb(std::move(db_options));
  auto server = *Server::Start(db.get(), {});
  uint16_t port = server->port();

  auto setup = *Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(setup.Execute("CREATE TABLE T (A INT, B INT)").ok());
  ASSERT_TRUE(setup.Execute("CREATE UNIQUE INDEX ON T (A)").ok());
  ASSERT_TRUE(setup.Execute("CREATE INDEX ON T (B)").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(setup.Execute("INSERT INTO T VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i % 7) + ")")
                    .ok());
  }
  setup.Close();

  Result<std::string> delete_result = Status::Internal("never ran");
  std::thread deleter([&] {
    auto client = *Client::Connect("127.0.0.1", port);
    std::string statement = "DELETE FROM T WHERE A IN (";
    for (int i = 0; i < 100; ++i) {
      statement += (i ? ", " : "") + std::to_string(i);
    }
    statement += ")";
    delete_result = client.Execute(statement);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(10), [&] { return entered; }))
        << "bulk delete never reached its first phase";
  }
  std::thread stopper([&] { EXPECT_TRUE(server->Stop().ok()); });
  // Stop() is now draining while the statement is provably mid-flight.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  stopper.join();
  deleter.join();
  ASSERT_TRUE(delete_result.ok())
      << "in-flight statement lost in drain: " << delete_result.status().ToString();
  EXPECT_EQ(delete_result->substr(0, 18), "deleted 100 row(s)");
  // The delete committed exactly once.
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  auto count = ExecuteStatement(db.get(), "SELECT COUNT(*) FROM T");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, "count = 100");
  // New connections are refused after Stop.
  auto late = Client::Connect("127.0.0.1", port);
  EXPECT_TRUE(!late.ok() || !late->Ping().ok());
}

// ---------------------------------------------------------------------------
// Live observability plane: /metrics endpoint, sys.* over the wire,
// slow-query capture
// ---------------------------------------------------------------------------

TEST(NetServer, MetricsEndpointServesPrometheusText) {
  auto db = MakeDb();
  ServerOptions options;
  options.metrics_port = 0;  // ephemeral
  auto server = *Server::Start(db.get(), options);
  ASSERT_GT(server->metrics_port(), 0);

  // Move some counters so the exposition carries live traffic.
  auto client = *Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.Execute("CREATE TABLE T (A INT)").ok());
  ASSERT_TRUE(client.Execute("INSERT INTO T VALUES (1)").ok());

  std::string reply = HttpGetMetrics(server->metrics_port(), "/metrics");
  EXPECT_EQ(reply.substr(0, 15), "HTTP/1.1 200 OK") << reply;
  EXPECT_NE(reply.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(reply.find("# TYPE bulkdel_net_conns gauge\n"),
            std::string::npos) << reply;
  EXPECT_NE(reply.find("bulkdel_net_accepted 1\n"), std::string::npos);
  EXPECT_NE(reply.find("bulkdel_net_req_ns_bucket{le=\"+Inf\"}"),
            std::string::npos);
  // Registry-external gauges from the statement registry ride along.
  EXPECT_NE(reply.find("bulkdel_sessions_active"), std::string::npos);
  EXPECT_NE(reply.find("bulkdel_statements_total"), std::string::npos);

  // Wrong path and wrong method are typed HTTP errors, not hangs.
  EXPECT_EQ(HttpGetMetrics(server->metrics_port(), "/nope").substr(0, 12),
            "HTTP/1.1 404");
  EXPECT_EQ(HttpExchange(server->metrics_port(),
                         "POST /metrics HTTP/1.1\r\n\r\n")
                .substr(0, 12),
            "HTTP/1.1 405");

  client.Close();
  ASSERT_TRUE(server->Stop().ok());
  // The endpoint dies with the server.
  EXPECT_EQ(HttpGetMetrics(server->metrics_port(), "/metrics"), "");
}

TEST(NetServer, SlowQueryCaptureWritesTracecatConsumableRecords) {
  std::string path = ::testing::TempDir() + "/net_slow_query_test.jsonl";
  std::remove(path.c_str());
  auto db = MakeDb();
  ServerOptions options;
  options.slow_query_ns = 1;  // everything is slow
  options.slow_query_log = path;
  auto server = *Server::Start(db.get(), options);
  auto client = *Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.Execute("CREATE TABLE T (A INT, B INT)").ok());
  ASSERT_TRUE(client.Execute("CREATE UNIQUE INDEX ON T (A)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.Execute("INSERT INTO T VALUES (" + std::to_string(i) +
                               ", " + std::to_string(i) + ")")
                    .ok());
  }
  ASSERT_TRUE(client.Execute("DELETE FROM T WHERE A IN (1, 2, 3)").ok());
  client.Close();
  EXPECT_GT(server->slow_queries_logged(), 0u);
  ASSERT_TRUE(server->Stop().ok());

  std::ifstream in(path);
  std::string line;
  int records = 0, delete_reports = 0;
  while (std::getline(in, line)) {
    ++records;
    auto rec = json::Parse(line);
    ASSERT_TRUE(rec.ok()) << line;
    EXPECT_GT(rec->IntOr("session"), 0) << line;
    EXPECT_GT(rec->IntOr("elapsed_ns"), 0);
    const json::Value* report = rec->Find("report");
    if (report != nullptr) {
      ++delete_reports;
      // The span subtree bulkdel_tracecat --slowlog walks.
      const json::Value* phases = report->Find("phases");
      ASSERT_NE(phases, nullptr) << line;
      EXPECT_FALSE(phases->array.empty());
    }
  }
  EXPECT_EQ(records, 53);
  EXPECT_EQ(delete_reports, 1);
  std::remove(path.c_str());
}

// TSan-covered: continuous /metrics scrapes and sys.statements queries race
// a bulk delete and three socket updaters. The plane must stay readable and
// data-race-free while secondary indices are off-line, and the SQL result
// must survive VerifyIntegrity.
TEST(NetServer, ObservabilityPlaneUnderConcurrentLoad) {
  DatabaseOptions db_options;
  db_options.memory_budget_bytes = 512 * 1024;
  db_options.concurrency = ConcurrencyProtocol::kSideFile;
  auto db = MakeDb(std::move(db_options));
  ServerOptions options;
  options.metrics_port = 0;
  auto server = *Server::Start(db.get(), options);
  uint16_t port = server->port();
  uint16_t http_port = server->metrics_port();

  const int kUpdaters = 3;
  const int64_t kPreload = 600;
  {
    auto setup = *Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(setup.Execute("CREATE TABLE R (A INT, B INT, C INT)").ok());
    ASSERT_TRUE(setup.Execute("CREATE UNIQUE INDEX ON R (A)").ok());
    ASSERT_TRUE(setup.Execute("CREATE INDEX ON R (B)").ok());
    for (int64_t k = 1; k <= kPreload; ++k) {
      ASSERT_TRUE(setup.Execute("INSERT INTO R VALUES (" + std::to_string(k) +
                                ", " + std::to_string(k % 31) + ", " +
                                std::to_string(k % 17) + ")")
                      .ok());
    }
  }
  std::string bulk_delete = "DELETE FROM R WHERE A IN (";
  for (int64_t k = 1; k <= kPreload / 2; ++k) {
    bulk_delete += (k > 1 ? ", " : "") + std::to_string(k * 2);
  }
  bulk_delete += ")";

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> scrapes{0};
  std::atomic<int> sys_queries{0};
  std::atomic<bool> saw_running_statement{false};

  std::thread observer([&] {
    auto conn = Client::Connect("127.0.0.1", port);
    if (!conn.ok()) {
      ++failures;
      return;
    }
    // At least one full scrape + sys.statements round, even when the bulk
    // delete finishes before this thread is scheduled.
    do {
      std::string scraped = HttpGetMetrics(http_port, "/metrics");
      if (scraped.substr(0, 15) == "HTTP/1.1 200 OK" &&
          scraped.find("bulkdel_net_conns") != std::string::npos) {
        ++scrapes;
      } else {
        ++failures;
      }
      auto r = conn->Execute("SELECT * FROM sys.statements");
      if (r.ok()) {
        ++sys_queries;
        // The probe's own SELECT is always in flight while rendering, so
        // every reply deterministically shows at least one "run" row.
        if (r->find(" run ") != std::string::npos) {
          saw_running_statement.store(true, std::memory_order_relaxed);
        }
      } else {
        ++failures;
      }
    } while (!done.load(std::memory_order_acquire));
  });
  std::vector<std::thread> updaters;
  for (int t = 0; t < kUpdaters; ++t) {
    updaters.emplace_back([&, t] {
      auto conn = Client::Connect("127.0.0.1", port);
      if (!conn.ok()) {
        ++failures;
        return;
      }
      int64_t base = (static_cast<int64_t>(t) + 1) << 32;
      int64_t next = 0;
      while (!done.load(std::memory_order_acquire) || next < 10) {
        auto r = conn->Execute("INSERT INTO R VALUES (" +
                               std::to_string(base + next) + ", 1, 2)");
        if (!r.ok()) {
          ++failures;
          break;
        }
        ++next;
      }
    });
  }
  {
    auto conn = *Client::Connect("127.0.0.1", port);
    auto r = conn.Execute(bulk_delete);
    if (!r.ok()) ++failures;
    done.store(true, std::memory_order_release);
  }
  observer.join();
  for (std::thread& t : updaters) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_GT(sys_queries.load(), 0);
  EXPECT_TRUE(saw_running_statement.load());
  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(db->VerifyIntegrity().ok());
}

// The acceptance test: N concurrent socket sessions run disjoint-range DML
// (inserts, point reads, deletes of their own rows) while one session runs a
// large BULK DELETE that takes secondary indices off-line (§3.1 side-file
// protocol). Every acknowledged statement is recorded; a fresh database then
// replays them serially (per-session order; ranges are disjoint so
// cross-session order cannot matter). The RID-free logical content digests
// must match exactly — concurrency may reorder physical placement, never
// visible state.
void RunConcurrentDmlEquivalence(DatabaseOptions db_options) {
  db_options.memory_budget_bytes = 512 * 1024;
  db_options.concurrency = ConcurrencyProtocol::kSideFile;
  db_options.enable_recovery_log = true;
  auto db = MakeDb(std::move(db_options));
  auto server = *Server::Start(db.get(), {});
  uint16_t port = server->port();

  const int kUpdaters = 3;
  const int64_t kPreload = 600;
  std::vector<std::string> setup_statements = {
      "CREATE TABLE R (A INT, B INT, C INT)", "CREATE UNIQUE INDEX ON R (A)",
      "CREATE INDEX ON R (B)", "CREATE INDEX ON R (C)"};
  {
    auto setup = *Client::Connect("127.0.0.1", port);
    for (const std::string& ddl : setup_statements) {
      ASSERT_TRUE(setup.Execute(ddl).ok()) << ddl;
    }
    for (int64_t k = 1; k <= kPreload; ++k) {
      std::string insert = "INSERT INTO R VALUES (" + std::to_string(k) +
                           ", " + std::to_string(k % 31) + ", " +
                           std::to_string(k % 17) + ")";
      ASSERT_TRUE(setup.Execute(insert).ok());
      setup_statements.push_back(std::move(insert));
    }
  }

  // One big delete of half the preload range, racing kUpdaters sessions that
  // insert into their own key ranges and delete some of their own inserts.
  std::string bulk_delete = "DELETE FROM R WHERE A IN (";
  for (int64_t k = 1; k <= kPreload / 2; ++k) {
    bulk_delete += (k > 1 ? ", " : "") + std::to_string(k * 2);
  }
  bulk_delete += ")";

  std::atomic<bool> delete_done{false};
  std::vector<std::vector<std::string>> acked(kUpdaters);
  std::atomic<int> failures{0};
  std::vector<std::thread> updaters;
  updaters.reserve(kUpdaters);
  for (int t = 0; t < kUpdaters; ++t) {
    updaters.emplace_back([&, t] {
      auto conn = Client::Connect("127.0.0.1", port);
      if (!conn.ok()) {
        ++failures;
        return;
      }
      int64_t base = (static_cast<int64_t>(t) + 1) << 32;
      int64_t next = 0;
      // Keep issuing DML until the bulk delete has finished, so some of it
      // provably lands inside the off-line window.
      while (!delete_done.load(std::memory_order_acquire) || next < 10) {
        int64_t key = base + next;
        std::string insert = "INSERT INTO R VALUES (" + std::to_string(key) +
                             ", " + std::to_string(key % 31) + ", " +
                             std::to_string(key % 17) + ")";
        auto r = conn->Execute(insert);
        if (!r.ok()) {
          ++failures;
          break;
        }
        acked[static_cast<size_t>(t)].push_back(std::move(insert));
        if (next % 5 == 4) {  // delete one of our own earlier rows
          std::string del = "DELETE FROM R WHERE A IN (" +
                            std::to_string(base + next - 2) + ")";
          auto d = conn->Execute(del);
          if (!d.ok()) {
            ++failures;
            break;
          }
          acked[static_cast<size_t>(t)].push_back(std::move(del));
        }
        if (next % 3 == 0) {  // point read; no state effect, just load
          auto q = conn->Execute("SELECT COUNT(*) FROM R WHERE A BETWEEN " +
                                 std::to_string(key) + " AND " +
                                 std::to_string(key));
          if (!q.ok()) {
            ++failures;
            break;
          }
        }
        ++next;
      }
    });
  }
  std::thread deleter([&] {
    auto conn = *Client::Connect("127.0.0.1", port);
    auto r = conn.Execute(bulk_delete);
    if (!r.ok()) ++failures;
    delete_done.store(true, std::memory_order_release);
  });
  deleter.join();
  for (std::thread& t : updaters) t.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(db->VerifyIntegrity().ok());
  auto concurrent_digest = LogicalContentHash(db.get(), "R");
  ASSERT_TRUE(concurrent_digest.ok()) << concurrent_digest.status().ToString();

  // Serial reference: same statements, one connection's worth at a time, on
  // a plain single-threaded database (no server, no side-files).
  auto reference = MakeDb();
  for (const std::string& s : setup_statements) {
    ASSERT_TRUE(ExecuteStatement(reference.get(), s).ok()) << s;
  }
  auto del = ExecuteStatement(reference.get(), bulk_delete);
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  for (const auto& session_statements : acked) {
    for (const std::string& s : session_statements) {
      ASSERT_TRUE(ExecuteStatement(reference.get(), s).ok()) << s;
    }
  }
  ASSERT_TRUE(reference->VerifyIntegrity().ok());
  auto reference_digest = LogicalContentHash(reference.get(), "R");
  ASSERT_TRUE(reference_digest.ok());
  EXPECT_EQ(*concurrent_digest, *reference_digest)
      << "concurrent execution diverged from the serial reference";
}

TEST(NetServer, ConcurrentDmlMatchesSerialReferenceSim) {
  RunConcurrentDmlEquivalence({});
}

TEST(NetServer, ConcurrentDmlMatchesSerialReferenceFile) {
  std::string dir = ::testing::TempDir() + "/bulkdel_net_server_file";
  std::remove((dir + "/pages.db").c_str());
  std::remove((dir + "/wal.log").c_str());
  DatabaseOptions options;
  options.backend = StorageBackend::kFile;
  options.path = dir;
  RunConcurrentDmlEquivalence(std::move(options));
}

}  // namespace
}  // namespace net
}  // namespace bulkdel
