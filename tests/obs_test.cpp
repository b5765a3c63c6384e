// Observability subsystem tests: metrics registry semantics (log2 bucket
// boundaries, snapshot deltas), the lock-free trace recorder (enable gating,
// multi-thread export, bounded drops), report JSON round-trip including the
// metrics snapshot, and the headline acceptance criterion — simulated I/O is
// bit-identical with tracing on or off, serial and parallel.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "core/database.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/statement_registry.h"
#include "obs/trace_recorder.h"
#include "util/json.h"
#include "workload/generator.h"

namespace bulkdel {
namespace {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, HistogramBucketBoundaries) {
  // Bucket b holds values of bit width b: 0 -> 0, [2^(b-1), 2^b) -> b.
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 3);
  EXPECT_EQ(obs::Histogram::BucketOf(7), 3);
  EXPECT_EQ(obs::Histogram::BucketOf(8), 4);
  EXPECT_EQ(obs::Histogram::BucketOf((int64_t{1} << 40) - 1), 40);
  EXPECT_EQ(obs::Histogram::BucketOf(int64_t{1} << 40), 41);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(0), 0);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(1), 1);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(2), 3);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(3), 7);
}

TEST(MetricsTest, HistogramObserveSnapshotAndQuantile) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.histogram("test.h");
  for (int i = 0; i < 90; ++i) h->Observe(3);    // bucket 2
  for (int i = 0; i < 10; ++i) h->Observe(100);  // bucket 7
  h->Observe(-5);                                // clamps to 0, bucket 0

  obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::HistogramSnapshot* s = snap.FindHistogram("test.h");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 101);
  EXPECT_EQ(s->sum, 90 * 3 + 10 * 100);
  ASSERT_EQ(s->buckets.size(), 8u);  // trailing zeros trimmed
  EXPECT_EQ(s->buckets[0], 1);
  EXPECT_EQ(s->buckets[2], 90);
  EXPECT_EQ(s->buckets[7], 10);
  // Quantiles resolve to the containing bucket's upper bound.
  EXPECT_EQ(s->ApproxQuantile(0.5), 3);
  EXPECT_EQ(s->ApproxQuantile(0.99), 127);
}

TEST(MetricsTest, SnapshotDeltaIsPerStatement) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.counter(obs::metric_names::kWalSyncs);
  obs::Histogram* h = registry.histogram(obs::metric_names::kWalSyncRecords);
  c->Add(5);
  h->Observe(16);
  obs::MetricsSnapshot before = registry.Snapshot();
  c->Add(3);
  h->Observe(16);
  h->Observe(17);
  obs::MetricsSnapshot delta = registry.Snapshot() - before;
  EXPECT_EQ(delta.CounterOr(obs::metric_names::kWalSyncs), 3);
  const obs::HistogramSnapshot* hs =
      delta.FindHistogram(obs::metric_names::kWalSyncRecords);
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 2);
  EXPECT_EQ(hs->sum, 33);
}

TEST(MetricsTest, ApproxQuantileLoBracketsTheQuantile) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.histogram("test.h");
  for (int i = 0; i < 90; ++i) h->Observe(3);    // bucket 2: (1, 3]
  for (int i = 0; i < 10; ++i) h->Observe(100);  // bucket 7: (63, 127]
  obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::HistogramSnapshot* s = snap.FindHistogram("test.h");
  ASSERT_NE(s, nullptr);
  // The true quantile lies in (ApproxQuantileLo(q), ApproxQuantile(q)].
  EXPECT_EQ(s->ApproxQuantileLo(0.5), 1);
  EXPECT_EQ(s->ApproxQuantile(0.5), 3);
  EXPECT_EQ(s->ApproxQuantileLo(0.99), 63);
  EXPECT_EQ(s->ApproxQuantile(0.99), 127);
  // Empty histogram: both bounds are 0, not garbage.
  obs::HistogramSnapshot empty;
  EXPECT_EQ(empty.ApproxQuantileLo(0.5), 0);
  EXPECT_EQ(empty.ApproxQuantile(0.5), 0);
}

TEST(MetricsTest, RegistryPointersAreStableAndKindsDoNotAlias) {
  obs::MetricsRegistry registry;
  obs::Counter* c1 = registry.counter("same.name");
  obs::Histogram* h1 = registry.histogram("same.name");
  EXPECT_EQ(registry.counter("same.name"), c1);
  EXPECT_EQ(registry.histogram("same.name"), h1);
  // All known metrics are pre-registered so two registries' snapshots are
  // positionally comparable.
  obs::MetricsRegistry other;
  obs::MetricsSnapshot a = other.Snapshot();
  for (const obs::MetricInfo& info : obs::KnownMetrics()) {
    bool found = false;
    for (const auto& [name, value] : a.counters) found |= name == info.name;
    for (const auto& h : a.histograms) found |= h.name == info.name;
    EXPECT_TRUE(found) << info.name;
  }
}

// ---------------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------------

/// The recorder is process-global; tests restore the disabled/empty state.
struct RecorderGuard {
  RecorderGuard() {
    obs::TraceRecorder::Global().SetEnabled(false);
    obs::TraceRecorder::Global().Reset();
  }
  ~RecorderGuard() {
    obs::TraceRecorder::Global().SetEnabled(false);
    obs::TraceRecorder::Global().Reset();
    obs::TraceRecorder::Global().SetThreadCapacity(
        obs::TraceRecorder::kDefaultCapacity);
  }
};

TEST(TraceRecorderTest, DisabledRecordsNothing) {
  RecorderGuard guard;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.RecordInstant(obs::TraceCategory::kPool, "nope");
  recorder.RecordComplete(obs::TraceCategory::kPhase, "nope", 1, 2);
  { obs::TraceSpan span(obs::TraceCategory::kWal, "nope"); }
  EXPECT_EQ(recorder.EventCount(), 0u);
}

TEST(TraceRecorderTest, MultiThreadRecordingExportsParsableChromeTrace) {
  RecorderGuard guard;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.SetEnabled(true);
  constexpr int kThreads = 4, kEventsPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        int64_t now = MonotonicNanos();
        recorder.RecordComplete(obs::TraceCategory::kPhase, "span", now - 100,
                                now, "items", i, "parent-label");
        recorder.RecordInstant(obs::TraceCategory::kPool, "tick", "n", t);
      }
    });
  }
  for (auto& t : threads) t.join();
  recorder.SetEnabled(false);
  EXPECT_EQ(recorder.EventCount(),
            static_cast<uint64_t>(kThreads * kEventsPerThread * 2));
  EXPECT_EQ(recorder.DroppedCount(), 0u);

  auto parsed = json::Parse(recorder.ToChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, json::Value::Kind::kArray);
  int spans = 0, instants = 0, lanes = 0;
  int64_t last_ts_int = -1;
  for (const json::Value& e : events->array) {
    std::string ph = e.StringOr("ph");
    if (ph == "M") {
      ++lanes;
      continue;
    }
    if (ph == "X") {
      ++spans;
      const json::Value* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->StringOr("parent"), "parent-label");
    } else if (ph == "i") {
      ++instants;
    }
    // Export is globally time-sorted (micros may repeat).
    int64_t ts = e.IntOr("ts");
    EXPECT_GE(ts, last_ts_int);
    last_ts_int = ts;
  }
  EXPECT_EQ(spans, kThreads * kEventsPerThread);
  EXPECT_EQ(instants, kThreads * kEventsPerThread);
  EXPECT_GE(lanes, 1);  // one thread_name record per lane
}

TEST(TraceRecorderTest, FullRingDropsNewestAndCounts) {
  RecorderGuard guard;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  // Capacity clamps to one chunk; a fresh thread registering below gets it.
  recorder.SetThreadCapacity(1);
  constexpr uint64_t kCapacity = obs::TraceRecorder::kChunkEvents;
  constexpr uint64_t kWrites = kCapacity + 500;
  recorder.SetEnabled(true);
  std::thread writer([&recorder] {
    for (uint64_t i = 0; i < kWrites; ++i) {
      recorder.RecordInstant(obs::TraceCategory::kDisk, "w");
    }
  });
  writer.join();
  recorder.SetEnabled(false);
  EXPECT_EQ(recorder.DroppedCount(), kWrites - kCapacity);
  EXPECT_GE(recorder.EventCount(), kCapacity);
}

// ---------------------------------------------------------------------------
// Report round-trip including metrics
// ---------------------------------------------------------------------------

TEST(ObsReportJsonTest, MetricsSnapshotRoundTrips) {
  BulkDeleteReport report;
  report.strategy_used = Strategy::kVerticalSortMerge;
  report.rows_deleted = 7;
  report.metrics.counters = {{"wal.syncs", 4}, {"ckpt.inline", 2}};
  obs::HistogramSnapshot h;
  h.name = "bp.fetch_ns";
  h.count = 3;
  h.sum = 1234;
  h.buckets = {0, 1, 0, 2};
  report.metrics.histograms.push_back(h);

  auto round = BulkDeleteReport::FromJson(report.ToJson());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->rows_deleted, 7u);
  EXPECT_TRUE(round->metrics == report.metrics);
  // And a second serialize is byte-identical (stable emitter).
  EXPECT_EQ(round->ToJson(), report.ToJson());
}

// ---------------------------------------------------------------------------
// Identity: simulated I/O is a function of page accesses only — tracing and
// metrics never perturb it (tier-1 acceptance criterion for this subsystem).
// ---------------------------------------------------------------------------

/// With `chrome_trace` set, the run's exported trace is stored there before
/// the recorder is reset.
BulkDeleteReport RunTracedDelete(int exec_threads, bool trace_spans,
                                 std::string* chrome_trace = nullptr) {
  RecorderGuard guard;  // each run starts from a clean, disabled recorder
  DatabaseOptions options;
  options.memory_budget_bytes = 4ull << 20;
  options.exec_threads = exec_threads;
  options.trace_spans = trace_spans;
  auto db = *Database::Create(options);

  WorkloadSpec spec;
  spec.n_tuples = 10000;
  spec.n_int_columns = 4;
  spec.tuple_size = 64;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A", "B", "C"});

  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(0.15, 42);
  auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (trace_spans) {
    // The traced run actually recorded spans (the flag is live) ...
    EXPECT_GT(obs::TraceRecorder::Global().EventCount(), 0u);
    // ... and its latency histograms populated into the report delta.
    const obs::HistogramSnapshot* fetch =
        report->metrics.FindHistogram(obs::metric_names::kBpFetchNs);
    EXPECT_NE(fetch, nullptr);
    if (fetch != nullptr) EXPECT_GT(fetch->count, 0);
  }
  if (chrome_trace != nullptr) {
    *chrome_trace = obs::TraceRecorder::Global().ToChromeTraceJson();
  }
  return report.ok() ? *report : BulkDeleteReport{};
}

const PhaseStats* FindPhase(const BulkDeleteReport& report,
                            const std::string& name) {
  for (const PhaseStats& p : report.phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

void ExpectSameSimulatedIo(const BulkDeleteReport& off,
                           const BulkDeleteReport& on) {
  EXPECT_EQ(off.rows_deleted, on.rows_deleted);
  EXPECT_EQ(off.index_entries_deleted, on.index_entries_deleted);
  EXPECT_EQ(off.io.reads, on.io.reads);
  EXPECT_EQ(off.io.writes, on.io.writes);
  EXPECT_EQ(off.io.sequential_accesses, on.io.sequential_accesses);
  EXPECT_EQ(off.io.random_accesses, on.io.random_accesses);
  EXPECT_EQ(off.io.simulated_micros, on.io.simulated_micros);
  ASSERT_EQ(off.phases.size(), on.phases.size());
  for (const PhaseStats& p : off.phases) {
    const PhaseStats* q = FindPhase(on, p.name);
    ASSERT_NE(q, nullptr) << p.name;
    EXPECT_EQ(p.items, q->items) << p.name;
    EXPECT_EQ(p.io.reads, q->io.reads) << p.name;
    EXPECT_EQ(p.io.writes, q->io.writes) << p.name;
    EXPECT_EQ(p.io.sequential_accesses, q->io.sequential_accesses) << p.name;
    EXPECT_EQ(p.io.random_accesses, q->io.random_accesses) << p.name;
    EXPECT_EQ(p.io.simulated_micros, q->io.simulated_micros) << p.name;
  }
}

TEST(ObsIdentityTest, SimulatedIoBitIdenticalTraceOnOffSerial) {
  BulkDeleteReport off = RunTracedDelete(1, /*trace_spans=*/false);
  BulkDeleteReport on = RunTracedDelete(1, /*trace_spans=*/true);
  ExpectSameSimulatedIo(off, on);
}

TEST(ObsIdentityTest, SimulatedIoBitIdenticalTraceOnOffParallel) {
  BulkDeleteReport off = RunTracedDelete(4, /*trace_spans=*/false);
  BulkDeleteReport on = RunTracedDelete(4, /*trace_spans=*/true);
  ExpectSameSimulatedIo(off, on);
}

TEST(ObsTimingTest, PhaseSpansShareTheReportsClockReadings) {
  // A phase's trace span and its PhaseStats come from the same two clock
  // readings: the span's duration is the report's wall time up to the
  // truncation of each edge to whole microseconds.
  std::string trace;
  BulkDeleteReport report = RunTracedDelete(4, /*trace_spans=*/true, &trace);
  ASSERT_FALSE(report.phases.empty());
  auto parsed = json::Parse(trace);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  size_t matched = 0;
  for (const json::Value& e : events->array) {
    if (e.StringOr("cat") != "phase" || e.StringOr("ph") != "X") continue;
    const PhaseStats* p = FindPhase(report, e.StringOr("name"));
    ASSERT_NE(p, nullptr) << e.StringOr("name");
    EXPECT_LT(std::abs(e.DoubleOr("dur") - static_cast<double>(p->wall_micros)),
              1.0)
        << p->name;
    ++matched;
  }
  EXPECT_EQ(matched, report.phases.size());
}

TEST(ObsIdentityTest, UntracedRunStillCountsClockFreeMetrics) {
  // Counters and count-valued histograms stay live with tracing off (they
  // read no clock); latency histograms must stay empty.
  BulkDeleteReport report = RunTracedDelete(1, /*trace_spans=*/false);
  EXPECT_GT(report.metrics.CounterOr(obs::metric_names::kSchedPhasesDispatched),
            0);
  const obs::HistogramSnapshot* fetch =
      report.metrics.FindHistogram(obs::metric_names::kBpFetchNs);
  ASSERT_NE(fetch, nullptr);
  EXPECT_EQ(fetch->count, 0);
  const obs::HistogramSnapshot* depth =
      report.metrics.FindHistogram(obs::metric_names::kSchedQueueDepth);
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->count, 0);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (/metrics)
// ---------------------------------------------------------------------------

TEST(ExpositionTest, MetricNameSanitizes) {
  EXPECT_EQ(obs::PrometheusMetricName("bp.fetch_ns"), "bulkdel_bp_fetch_ns");
  EXPECT_EQ(obs::PrometheusMetricName("net.bytes_in"),
            "bulkdel_net_bytes_in");
  EXPECT_EQ(obs::PrometheusMetricName("weird-name!"), "bulkdel_weird_name_");
}

TEST(ExpositionTest, RendersCountersGaugesAndCumulativeHistograms) {
  obs::MetricsRegistry registry;
  registry.counter(obs::metric_names::kWalSyncs)->Add(5);
  registry.gauge(obs::metric_names::kNetConns)->Set(3);
  obs::Histogram* h = registry.histogram(obs::metric_names::kWalSyncRecords);
  h->Observe(0);  // bucket 0
  h->Observe(3);  // bucket 2
  h->Observe(3);
  std::string text = obs::PrometheusText(registry.Snapshot(),
                                         {{"sessions_active", 7}});
  // Kinds recovered from the static metric table.
  EXPECT_NE(text.find("# TYPE bulkdel_wal_syncs counter\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("bulkdel_wal_syncs 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bulkdel_net_conns gauge\n"), std::string::npos);
  EXPECT_NE(text.find("bulkdel_net_conns 3\n"), std::string::npos);
  // Histogram buckets are cumulative with le = the log2 bucket's inclusive
  // upper bound, ending with +Inf == _count.
  EXPECT_NE(text.find("# TYPE bulkdel_wal_sync_records histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("bulkdel_wal_sync_records_bucket{le=\"0\"} 1\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("bulkdel_wal_sync_records_bucket{le=\"3\"} 3\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("bulkdel_wal_sync_records_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos) << text;
  EXPECT_NE(text.find("bulkdel_wal_sync_records_sum 6\n"), std::string::npos);
  EXPECT_NE(text.find("bulkdel_wal_sync_records_count 3\n"),
            std::string::npos);
  // Process-level series outside the registry ride along as gauges.
  EXPECT_NE(text.find("# TYPE bulkdel_sessions_active gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("bulkdel_sessions_active 7\n"), std::string::npos);
  // No line is emitted twice (duplicate series break Prometheus ingestion).
  std::set<std::string> seen;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    std::string line = text.substr(pos, eol - pos);
    EXPECT_TRUE(seen.insert(line).second) << "duplicate line: " << line;
    pos = eol + 1;
  }
}

// ---------------------------------------------------------------------------
// Statement registry (sys.sessions / sys.statements backing store)
// ---------------------------------------------------------------------------

struct StatementRegistryGuard {
  StatementRegistryGuard() { obs::StatementRegistry::Global().Reset(); }
  ~StatementRegistryGuard() { obs::StatementRegistry::Global().Reset(); }
};

TEST(StatementRegistryTest, SessionAndStatementLifecycle) {
  StatementRegistryGuard guard;
  obs::StatementRegistry& reg = obs::StatementRegistry::Global();
  obs::MetricsRegistry metrics;

  uint64_t session = reg.RegisterSession("tcp:42");
  ASSERT_NE(session, 0u);
  EXPECT_EQ(reg.sessions_active(), 1);
  EXPECT_EQ(obs::StatementRegistry::CurrentThreadStatement(), 0u);

  metrics.counter(obs::metric_names::kWalSyncs)->Add(100);
  {
    obs::StatementScope scope(session, "DELETE FROM R WHERE A IN (1)",
                              &metrics);
    EXPECT_EQ(obs::StatementRegistry::CurrentThreadStatement(), scope.id());
    EXPECT_EQ(reg.statements_inflight(), 1);
    metrics.counter(obs::metric_names::kWalSyncs)->Add(3);  // statement work
    reg.SetPhase(scope.id(), "delete_index:R.A");

    std::vector<obs::StatementRow> rows = reg.Statements();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].id, scope.id());
    EXPECT_EQ(rows[0].session_id, session);
    EXPECT_FALSE(rows[0].finished);
    EXPECT_EQ(rows[0].phase, "delete_index:R.A");
    // Live delta covers only work since BeginStatement, not the baseline.
    EXPECT_EQ(rows[0].delta.CounterOr(obs::metric_names::kWalSyncs), 3);

    std::vector<obs::SessionRow> sessions = reg.Sessions();
    ASSERT_EQ(sessions.size(), 1u);
    EXPECT_EQ(sessions[0].peer, "tcp:42");
    EXPECT_EQ(sessions[0].inflight_statement, scope.id());
    scope.set_ok(true);
    scope.set_rows(1);
  }
  EXPECT_EQ(obs::StatementRegistry::CurrentThreadStatement(), 0u);
  EXPECT_EQ(reg.statements_inflight(), 0);

  // Finished row moved to the recent ring with its final delta frozen.
  metrics.counter(obs::metric_names::kWalSyncs)->Add(50);  // post-statement
  std::vector<obs::StatementRow> rows = reg.Statements();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].finished);
  EXPECT_TRUE(rows[0].ok);
  EXPECT_EQ(rows[0].rows, 1u);
  EXPECT_EQ(rows[0].delta.CounterOr(obs::metric_names::kWalSyncs), 3);
  EXPECT_EQ(reg.Sessions()[0].statements, 1u);
  EXPECT_EQ(reg.Sessions()[0].inflight_statement, 0u);

  reg.UnregisterSession(session);
  EXPECT_EQ(reg.sessions_active(), 0);
}

TEST(StatementRegistryTest, TextTruncationAndRecentRingBound) {
  StatementRegistryGuard guard;
  obs::StatementRegistry& reg = obs::StatementRegistry::Global();
  std::string huge(10000, 'x');
  {
    obs::StatementScope scope(0, huge, nullptr);
  }
  std::vector<obs::StatementRow> rows = reg.Statements();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].statement.size(),
            obs::StatementRegistry::kStatementTextCap);
  // The finished ring is bounded, newest first.
  for (int i = 0; i < 100; ++i) {
    obs::StatementScope scope(0, "stmt " + std::to_string(i), nullptr);
  }
  rows = reg.Statements();
  EXPECT_EQ(rows.size(), obs::StatementRegistry::kRecentStatements);
  EXPECT_EQ(rows[0].statement, "stmt 99");
}

TEST(StatementRegistryTest, NestedScopesAttributeToTheInnermost) {
  StatementRegistryGuard guard;
  obs::StatementScope outer(0, "outer", nullptr);
  {
    obs::StatementScope inner(0, "inner", nullptr);
    EXPECT_EQ(obs::StatementRegistry::CurrentThreadStatement(), inner.id());
  }
  EXPECT_EQ(obs::StatementRegistry::CurrentThreadStatement(), outer.id());
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

TEST(SlowQueryLogTest, ThresholdAppendAndDisabledStates) {
  std::string path = ::testing::TempDir() + "/slow_query_log_test.jsonl";
  std::remove(path.c_str());
  {
    obs::SlowQueryLog log(path, 1000);
    ASSERT_TRUE(log.enabled()) << log.open_status().ToString();
    EXPECT_FALSE(log.Exceeds(1000));  // strictly greater-than
    EXPECT_TRUE(log.Exceeds(1001));
    EXPECT_TRUE(log.Append("{\"a\": 1}").ok());
    EXPECT_TRUE(log.Append("{\"a\": 2}").ok());
    EXPECT_EQ(log.records(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(json::Parse(line).ok()) << line;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());

  // threshold <= 0 disables capture entirely.
  obs::SlowQueryLog off(path, 0);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.Exceeds(INT64_MAX));
  EXPECT_EQ(off.Append("{}").code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Identity: the statement-attribution plane (registry + phase publication)
// must not perturb simulated I/O either — same invariant as tracing.
// ---------------------------------------------------------------------------

BulkDeleteReport RunPlaneDelete(int exec_threads, bool plane) {
  StatementRegistryGuard guard;
  DatabaseOptions options;
  options.memory_budget_bytes = 4ull << 20;
  options.exec_threads = exec_threads;
  auto db = *Database::Create(options);

  WorkloadSpec spec;
  spec.n_tuples = 10000;
  spec.n_int_columns = 4;
  spec.tuple_size = 64;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A", "B", "C"});

  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(0.15, 42);

  obs::StatementRegistry& reg = obs::StatementRegistry::Global();
  BulkDeleteReport out;
  if (plane) {
    uint64_t session = reg.RegisterSession("test");
    obs::StatementScope scope(session, "DELETE (plane identity)",
                              &db->metrics());
    Result<BulkDeleteReport> report =
        db->BulkDelete(bd, Strategy::kVerticalSortMerge);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (report.ok()) out = *report;
    // While the scope is open, sys.statements shows the statement in flight
    // with the last executor phase and a live metrics delta.
    std::vector<obs::StatementRow> rows = reg.Statements();
    EXPECT_EQ(rows.size(), 1u);
    if (!rows.empty()) {
      EXPECT_EQ(rows[0].id, scope.id());
      EXPECT_FALSE(rows[0].finished);
      EXPECT_FALSE(rows[0].phase.empty());  // PhaseScope published via tls
      EXPECT_GT(rows[0].delta.CounterOr(
                    obs::metric_names::kSchedPhasesDispatched), 0);
    }
    reg.UnregisterSession(session);
  } else {
    Result<BulkDeleteReport> report =
        db->BulkDelete(bd, Strategy::kVerticalSortMerge);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (report.ok()) out = *report;
  }
  return out;
}

TEST(ObsIdentityTest, SimulatedIoBitIdenticalPlaneOnOffSerial) {
  BulkDeleteReport off = RunPlaneDelete(1, /*plane=*/false);
  BulkDeleteReport on = RunPlaneDelete(1, /*plane=*/true);
  ExpectSameSimulatedIo(off, on);
}

TEST(ObsIdentityTest, SimulatedIoBitIdenticalPlaneOnOffParallel) {
  BulkDeleteReport off = RunPlaneDelete(4, /*plane=*/false);
  BulkDeleteReport on = RunPlaneDelete(4, /*plane=*/true);
  ExpectSameSimulatedIo(off, on);
}

TEST(ObsExplainTest, ExplainListsMetricsAndTraceCategories) {
  DatabaseOptions options;
  options.memory_budget_bytes = 1ull << 20;
  auto db = *Database::Create(options);
  WorkloadSpec spec;
  spec.n_tuples = 2000;
  spec.n_int_columns = 4;
  spec.tuple_size = 64;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A", "B"});
  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(0.10, 7);
  auto plan = db->ExplainBulkDelete(bd, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = plan->Explain();
  EXPECT_NE(text.find("metrics:"), std::string::npos) << text;
  EXPECT_NE(text.find(obs::metric_names::kBpFetchNs), std::string::npos)
      << text;
  EXPECT_NE(text.find("trace categories:"), std::string::npos) << text;
  EXPECT_NE(text.find("pool"), std::string::npos) << text;
}

}  // namespace
}  // namespace bulkdel
