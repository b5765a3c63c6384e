// Tests for the phase-DAG execution core: the PhaseScheduler itself, the
// parallel vertical executor on the Fig. 8 workload shape (3 indices, 15 %
// deletes), per-phase I/O attribution identity across thread counts, and the
// structured phase trace with its JSON round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/exec_context.h"
#include "core/phase_scheduler.h"
#include "fault/crash_sweep.h"
#include "workload/generator.h"

namespace bulkdel {
namespace {

// ---------------------------------------------------------------------------
// PhaseScheduler unit tests
// ---------------------------------------------------------------------------

TEST(PhaseSchedulerTest, SerialRunsInVectorOrder) {
  ExecContext ctx(nullptr);
  std::vector<int> order;
  std::vector<PhaseTask> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back(PhaseTask{"t" + std::to_string(i),
                              i > 0 ? std::vector<int>{i - 1}
                                    : std::vector<int>{},
                              [&order, i] {
                                order.push_back(i);
                                return Status::OK();
                              }});
  }
  ASSERT_TRUE(PhaseScheduler::Run(std::move(tasks), 1, &ctx).ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(PhaseSchedulerTest, ParallelRespectsDependencies) {
  ExecContext ctx(nullptr);
  std::atomic<bool> a_done{false}, b_done{false}, c_done{false};
  std::vector<PhaseTask> tasks;
  tasks.push_back(PhaseTask{"a", {}, [&] {
                              a_done = true;
                              return Status::OK();
                            }});
  // b and c fan out from a; d joins them.
  tasks.push_back(PhaseTask{"b", {0}, [&] {
                              EXPECT_TRUE(a_done.load());
                              b_done = true;
                              return Status::OK();
                            }});
  tasks.push_back(PhaseTask{"c", {0}, [&] {
                              EXPECT_TRUE(a_done.load());
                              c_done = true;
                              return Status::OK();
                            }});
  tasks.push_back(PhaseTask{"d", {1, 2}, [&] {
                              EXPECT_TRUE(b_done.load() && c_done.load());
                              return Status::OK();
                            }});
  ASSERT_TRUE(PhaseScheduler::Run(std::move(tasks), 4, &ctx).ok());
}

TEST(PhaseSchedulerTest, IndependentTasksOverlapOnWorkers) {
  ExecContext ctx(nullptr);
  // Two dependency-free tasks that each wait for the other to have started:
  // only possible if the pool really runs them concurrently.
  std::atomic<int> started{0};
  auto body = [&] {
    ++started;
    for (int spins = 0; started.load() < 2 && spins < 10000; ++spins) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return started.load() == 2
               ? Status::OK()
               : Status::Internal("peer task never started");
  };
  std::vector<PhaseTask> tasks;
  tasks.push_back(PhaseTask{"x", {}, body});
  tasks.push_back(PhaseTask{"y", {}, body});
  EXPECT_TRUE(PhaseScheduler::Run(std::move(tasks), 2, &ctx).ok());
}

TEST(PhaseSchedulerTest, ErrorCancelsUnstartedTasks) {
  for (int threads : {1, 4}) {
    ExecContext ctx(nullptr);
    std::atomic<bool> late_ran{false};
    std::vector<PhaseTask> tasks;
    tasks.push_back(PhaseTask{"boom", {}, [] {
                                return Status::Internal("injected");
                              }});
    tasks.push_back(PhaseTask{"late", {0}, [&] {
                                late_ran = true;
                                return Status::OK();
                              }});
    Status s = PhaseScheduler::Run(std::move(tasks), threads, &ctx);
    EXPECT_FALSE(s.ok()) << "threads=" << threads;
    EXPECT_NE(s.ToString().find("injected"), std::string::npos);
    EXPECT_FALSE(late_ran.load()) << "threads=" << threads;
    EXPECT_TRUE(ctx.cancelled());
  }
}

TEST(PhaseSchedulerTest, ForwardDependencyRejected) {
  ExecContext ctx(nullptr);
  std::vector<PhaseTask> tasks;
  tasks.push_back(PhaseTask{"a", {1}, [] { return Status::OK(); }});
  tasks.push_back(PhaseTask{"b", {}, [] { return Status::OK(); }});
  EXPECT_FALSE(PhaseScheduler::Run(std::move(tasks), 2, &ctx).ok());
}

// ---------------------------------------------------------------------------
// Parallel vertical execution on the Fig. 8 workload shape
// ---------------------------------------------------------------------------

struct Fig8Run {
  BulkDeleteReport report;
  std::multiset<int64_t> surviving_a;
};

Fig8Run RunFig8(int exec_threads, size_t n_tuples = 20000,
                std::function<void(const std::string&)> phase_begin_hook = {},
                bool enable_recovery_log = false) {
  DatabaseOptions options;
  // Generous budget: the working set stays resident, so every phase performs
  // the same page accesses regardless of scheduling — the precondition for
  // exact I/O identity across thread counts.
  options.memory_budget_bytes = 16ull << 20;
  options.exec_threads = exec_threads;
  options.phase_begin_hook = std::move(phase_begin_hook);
  options.enable_recovery_log = enable_recovery_log;
  auto db = *Database::Create(options);

  WorkloadSpec spec;
  spec.n_tuples = n_tuples;
  spec.n_int_columns = 4;
  spec.tuple_size = 64;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A", "B", "C"});

  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(0.15, 42);  // Fig. 8: 15 % deletes

  auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  Fig8Run run;
  if (report.ok()) run.report = *report;
  TableDef* table = db->GetTable("R");
  EXPECT_TRUE(table->table
                  ->Scan([&](const Rid&, const char* tuple) {
                    run.surviving_a.insert(table->schema->GetInt(tuple, 0));
                    return Status::OK();
                  })
                  .ok());
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  return run;
}

const PhaseStats* FindPhase(const BulkDeleteReport& report,
                            const std::string& name) {
  for (const PhaseStats& p : report.phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

TEST(ParallelVerticalTest, SecondaryPhasesOverlapAtFourThreads) {
  // A single-CPU host may never preempt one short secondary phase to run the
  // other, so wall-clock overlap cannot be left to scheduling luck. The
  // phase-begin hook rendezvouses the two non-unique secondary phases
  // instead: each blocks at begin (after its begin timestamp) until the
  // other has also begun. The barrier can only release promptly if the
  // scheduler truly dispatched both concurrently; a serial schedule times
  // out the first phase and the trace then shows no overlap, failing below.
  std::atomic<int> secondaries_begun{0};
  auto rendezvous = [&](const std::string& phase) {
    if (phase != "index:R.B" && phase != "index:R.C") return;
    ++secondaries_begun;
    for (int spins = 0; secondaries_begun.load() < 2 && spins < 20000;
         ++spins) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  Fig8Run run = RunFig8(4, 20000, rendezvous);
  EXPECT_EQ(secondaries_begun.load(), 2);
  const PhaseStats* b = FindPhase(run.report, "index:R.B");
  const PhaseStats* c = FindPhase(run.report, "index:R.C");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(b->OverlapsInTime(*c))
      << "B [" << b->begin_micros << "," << b->end_micros << "] vs C ["
      << c->begin_micros << "," << c->end_micros << "]";
  EXPECT_NE(b->thread_id, c->thread_id)
      << "overlapping phases cannot share a thread";
}

struct CascadeRun {
  BulkDeleteReport report;
  std::vector<std::string> hashes;
};

/// Forgets every 3rd of 3000 users through USERS -> ORD (CASCADE), two
/// orders per user, at `exec_threads`.
CascadeRun RunCascade(int exec_threads,
                      std::function<void(const std::string&)> hook = {}) {
  DatabaseOptions options;
  options.memory_budget_bytes = 16ull << 20;  // resident: identical I/O
  options.exec_threads = exec_threads;
  options.phase_begin_hook = std::move(hook);
  auto db = *Database::Create(options);
  Schema schema = *Schema::PaperStyle(3, 64);
  for (const char* t : {"USERS", "ORD"}) {
    EXPECT_TRUE(db->CreateTable(t, schema).ok());
    EXPECT_TRUE(db->CreateIndex(t, "A", {.unique = true}).ok());
  }
  EXPECT_TRUE(db->CreateIndex("ORD", "B").ok());
  for (int64_t u = 0; u < 3000; ++u) {
    EXPECT_TRUE(db->InsertRow("USERS", {u, u * 3, u * 5}).ok());
    EXPECT_TRUE(db->InsertRow("ORD", {2 * u, u, u * 7}).ok());
    EXPECT_TRUE(db->InsertRow("ORD", {2 * u + 1, u, u * 11}).ok());
  }
  EXPECT_TRUE(
      db->AddForeignKey("ORD", "B", "USERS", "A", FkAction::kCascade).ok());
  BulkDeleteSpec bd;
  bd.table = "USERS";
  bd.key_column = "A";
  for (int64_t u = 0; u < 3000; u += 3) bd.keys.push_back(u);
  auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  CascadeRun run;
  if (report.ok()) run.report = *report;
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  for (const char* t : {"USERS", "ORD"}) {
    run.hashes.push_back(*LogicalContentHash(db.get(), t));
  }
  return run;
}

TEST(ParallelVerticalTest, CascadeLegsRunConcurrentlyWithSerialResults) {
  // The ORD leg and the USERS parent are independent legs of one statement,
  // so their key-index passes share a level of the DAG. Rendezvous them as
  // above: only a concurrent dispatch releases the barrier promptly.
  std::atomic<int> key_passes_begun{0};
  auto rendezvous = [&](const std::string& phase) {
    if (phase != "index:USERS.A" && phase != "cascade:ORD/index:ORD.B") {
      return;
    }
    ++key_passes_begun;
    for (int spins = 0; key_passes_begun.load() < 2 && spins < 20000;
         ++spins) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  CascadeRun parallel = RunCascade(4, rendezvous);
  CascadeRun serial = RunCascade(1);
  EXPECT_EQ(key_passes_begun.load(), 2);
  const PhaseStats* users = FindPhase(parallel.report, "index:USERS.A");
  const PhaseStats* ord = FindPhase(parallel.report, "cascade:ORD/index:ORD.B");
  ASSERT_NE(users, nullptr);
  ASSERT_NE(ord, nullptr);
  EXPECT_TRUE(users->OverlapsInTime(*ord));
  EXPECT_NE(users->thread_id, ord->thread_id);

  EXPECT_EQ(parallel.hashes, serial.hashes);
  EXPECT_EQ(parallel.report.rows_deleted, 1000u);
  EXPECT_EQ(parallel.report.cascaded_rows, 2000u);
  EXPECT_EQ(parallel.report.cascade_tables, serial.report.cascade_tables);
  EXPECT_EQ(parallel.report.io.simulated_micros,
            serial.report.io.simulated_micros);
  EXPECT_EQ(parallel.report.phases.size(), serial.report.phases.size());
}

TEST(ParallelVerticalTest, SecondaryPortionWallTimeShrinksOnMultiCoreHosts) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "a single-CPU host cannot shrink wall time by threading";
  }
  // The secondary-index portion spans from the first secondary phase's begin
  // to the last one's end. Serially that is the sum of both passes; with a
  // pool and >= 2 CPUs it approaches the longer pass alone. Retry with a
  // lenient threshold: this asserts scaling, not a precise speedup.
  auto secondary_span = [](const BulkDeleteReport& report) {
    const PhaseStats* b = FindPhase(report, "index:R.B");
    const PhaseStats* c = FindPhase(report, "index:R.C");
    EXPECT_NE(b, nullptr);
    EXPECT_NE(c, nullptr);
    if (b == nullptr || c == nullptr) return int64_t{0};
    return std::max(b->end_micros, c->end_micros) -
           std::min(b->begin_micros, c->begin_micros);
  };
  for (int attempt = 0; attempt < 5; ++attempt) {
    int64_t serial = secondary_span(RunFig8(1, 40000).report);
    int64_t parallel = secondary_span(RunFig8(4, 40000).report);
    if (parallel > 0 && parallel < serial * 9 / 10) return;
  }
  FAIL() << "secondary-index span never dropped below 90% of serial";
}

TEST(ParallelVerticalTest, SerialSchedulePhasesDoNotOverlap) {
  Fig8Run run = RunFig8(1);
  for (size_t i = 0; i < run.report.phases.size(); ++i) {
    EXPECT_EQ(run.report.phases[i].thread_id, 0);
    for (size_t j = i + 1; j < run.report.phases.size(); ++j) {
      EXPECT_FALSE(run.report.phases[i].OverlapsInTime(run.report.phases[j]))
          << run.report.phases[i].name << " vs " << run.report.phases[j].name;
    }
  }
}

TEST(ParallelVerticalTest, SimulatedIoIdenticalAcrossThreadCounts) {
  Fig8Run serial = RunFig8(1);
  Fig8Run parallel = RunFig8(4);

  EXPECT_EQ(serial.report.rows_deleted, parallel.report.rows_deleted);
  EXPECT_EQ(serial.report.index_entries_deleted,
            parallel.report.index_entries_deleted);
  EXPECT_EQ(serial.surviving_a, parallel.surviving_a);

  // The headline acceptance criterion: the simulated I/O totals are
  // bit-identical, because attribution classifies each phase's accesses
  // against that phase's own disk head.
  EXPECT_EQ(serial.report.io.simulated_micros,
            parallel.report.io.simulated_micros);
  EXPECT_EQ(serial.report.io.reads, parallel.report.io.reads);
  EXPECT_EQ(serial.report.io.writes, parallel.report.io.writes);
  EXPECT_EQ(serial.report.io.sequential_accesses,
            parallel.report.io.sequential_accesses);
  EXPECT_EQ(serial.report.io.random_accesses,
            parallel.report.io.random_accesses);

  // And per-phase I/O matches too, phase by phase.
  for (const PhaseStats& p : serial.report.phases) {
    const PhaseStats* q = FindPhase(parallel.report, p.name);
    ASSERT_NE(q, nullptr) << p.name;
    EXPECT_EQ(p.io.simulated_micros, q->io.simulated_micros) << p.name;
    EXPECT_EQ(p.items, q->items) << p.name;
  }
}

TEST(ParallelVerticalTest, RecoveryLoggingWorksWithDeferredCheckpoints) {
  // With the recovery log on, parallel secondary phases defer their durable
  // checkpoints to the exclusive finalize node (a mid-run pool flush would
  // race sibling phases mutating pinned pages). The logged parallel run must
  // still complete and leave the same post-state as the logged serial run.
  Fig8Run serial = RunFig8(1, 20000, {}, /*enable_recovery_log=*/true);
  Fig8Run parallel = RunFig8(4, 20000, {}, /*enable_recovery_log=*/true);
  EXPECT_EQ(serial.report.rows_deleted, parallel.report.rows_deleted);
  EXPECT_EQ(serial.surviving_a, parallel.surviving_a);
  EXPECT_FALSE(parallel.report.phases.empty());
}

TEST(ParallelVerticalTest, TraceFieldsAreStructurallySound) {
  Fig8Run run = RunFig8(4);
  ASSERT_FALSE(run.report.phases.empty());
  for (const PhaseStats& p : run.report.phases) {
    EXPECT_GE(p.begin_micros, 0) << p.name;
    EXPECT_GE(p.end_micros, p.begin_micros) << p.name;
    EXPECT_EQ(p.wall_micros, p.end_micros - p.begin_micros) << p.name;
    EXPECT_GE(p.thread_id, 0) << p.name;
  }
  // The DAG shape is recorded via parent links: secondaries hang off the
  // table pass, the table pass off the key-index probe.
  const PhaseStats* table = FindPhase(run.report, "table");
  const PhaseStats* b = FindPhase(run.report, "index:R.B");
  ASSERT_NE(table, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(table->parent, "index:R.A");
  EXPECT_EQ(b->parent, "table");
}

// ---------------------------------------------------------------------------
// JSON round-trip of the structured trace
// ---------------------------------------------------------------------------

TEST(ReportJsonTest, RoundTripsAllFields) {
  Fig8Run run = RunFig8(4, /*n_tuples=*/4000);
  const BulkDeleteReport& r = run.report;

  std::string json = r.ToJson();
  auto parsed = BulkDeleteReport::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;

  EXPECT_EQ(parsed->strategy_used, r.strategy_used);
  EXPECT_EQ(parsed->rows_deleted, r.rows_deleted);
  EXPECT_EQ(parsed->index_entries_deleted, r.index_entries_deleted);
  EXPECT_EQ(parsed->cascaded_rows, r.cascaded_rows);
  EXPECT_EQ(parsed->wall_micros, r.wall_micros);
  EXPECT_EQ(parsed->plan_explain, r.plan_explain);
  EXPECT_EQ(parsed->io.reads, r.io.reads);
  EXPECT_EQ(parsed->io.writes, r.io.writes);
  EXPECT_EQ(parsed->io.sequential_accesses, r.io.sequential_accesses);
  EXPECT_EQ(parsed->io.random_accesses, r.io.random_accesses);
  EXPECT_EQ(parsed->io.simulated_micros, r.io.simulated_micros);

  EXPECT_EQ(parsed->pool.hits, r.pool.hits);
  EXPECT_EQ(parsed->pool.misses, r.pool.misses);
  EXPECT_EQ(parsed->pool.evictions, r.pool.evictions);
  EXPECT_EQ(parsed->pool.dirty_writebacks, r.pool.dirty_writebacks);
  EXPECT_EQ(parsed->pool.coalesced_writebacks, r.pool.coalesced_writebacks);
  EXPECT_GT(r.pool.hits + r.pool.misses, 0) << "pool stats never collected";

  ASSERT_EQ(parsed->phases.size(), r.phases.size());
  for (size_t i = 0; i < r.phases.size(); ++i) {
    const PhaseStats& a = r.phases[i];
    const PhaseStats& b = parsed->phases[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.items, b.items);
    EXPECT_EQ(a.wall_micros, b.wall_micros);
    EXPECT_EQ(a.begin_micros, b.begin_micros);
    EXPECT_EQ(a.end_micros, b.end_micros);
    EXPECT_EQ(a.thread_id, b.thread_id);
    EXPECT_EQ(a.io.reads, b.io.reads);
    EXPECT_EQ(a.io.writes, b.io.writes);
    EXPECT_EQ(a.io.sequential_accesses, b.io.sequential_accesses);
    EXPECT_EQ(a.io.random_accesses, b.io.random_accesses);
    EXPECT_EQ(a.io.simulated_micros, b.io.simulated_micros);
  }

  // A second serialize must be byte-identical (stable emitter).
  EXPECT_EQ(parsed->ToJson(), json);

  // Older --trace-out lines carry two pool counters the schema has since
  // dropped; they still parse, and the unknown keys are ignored.
  std::string legacy = json;
  const std::string pool_key = "\"pool\":{";
  size_t at = legacy.find(pool_key);
  ASSERT_NE(at, std::string::npos) << json;
  legacy.insert(at + pool_key.size(),
                "\"prefetched\":7,\"prefetch_hits\":5,");
  auto legacy_parsed = BulkDeleteReport::FromJson(legacy);
  ASSERT_TRUE(legacy_parsed.ok()) << legacy_parsed.status().ToString();
  EXPECT_EQ(legacy_parsed->ToJson(), json);
}

TEST(ReportJsonTest, ParsesOldTraceLineWithPoolShards) {
  BulkDeleteReport r;
  r.pool.hits = 7;
  r.pool.misses = 3;
  r.pool.evictions = 2;
  r.pool.dirty_writebacks = 1;
  std::string json = r.ToJson();

  // Older --trace-out lines carry a per-sub-pool breakdown of `pool` after
  // it. The array is ignored; `pool` itself parses as written.
  std::string legacy = json;
  size_t at = legacy.find(",\"phases\":[");
  ASSERT_NE(at, std::string::npos) << json;
  legacy.insert(at,
                ",\"pool_shards\":[{\"hits\":3,\"misses\":1,\"evictions\":2,"
                "\"dirty_writebacks\":1,\"coalesced_writebacks\":0},"
                "{\"hits\":4,\"misses\":2,\"evictions\":0,"
                "\"dirty_writebacks\":0,\"coalesced_writebacks\":0}]");
  auto parsed = BulkDeleteReport::FromJson(legacy);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << legacy;
  EXPECT_EQ(parsed->pool.hits, 7);
  EXPECT_EQ(parsed->pool.misses, 3);
  EXPECT_EQ(parsed->pool.evictions, 2);
  EXPECT_EQ(parsed->pool.dirty_writebacks, 1);
  EXPECT_EQ(parsed->ToJson(), json);
}

TEST(ReportJsonTest, EscapesSpecialCharacters) {
  BulkDeleteReport r;
  r.plan_explain = "line1\nline2\t\"quoted\" \\slash\x01";
  PhaseStats p;
  p.name = "weird \"phase\"";
  r.phases.push_back(p);
  std::string json = r.ToJson();
  auto parsed = BulkDeleteReport::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  EXPECT_EQ(parsed->plan_explain, r.plan_explain);
  ASSERT_EQ(parsed->phases.size(), 1u);
  EXPECT_EQ(parsed->phases[0].name, p.name);
}

TEST(ReportJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(BulkDeleteReport::FromJson("").ok());
  EXPECT_FALSE(BulkDeleteReport::FromJson("{").ok());
  EXPECT_FALSE(BulkDeleteReport::FromJson("[1,2]").ok());
  EXPECT_FALSE(BulkDeleteReport::FromJson("{\"phases\": 3}").ok());
}

}  // namespace
}  // namespace bulkdel
