#ifndef BULKDEL_OBS_METRICS_H_
#define BULKDEL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace bulkdel {
namespace obs {

/// Canonical metric names. Instrumentation sites register with these so
/// Explain() can enumerate the names a statement will populate (the
/// observability analogue of fault_sites — see docs/OBSERVABILITY.md). Keep
/// this list in sync with KnownMetrics().
namespace metric_names {
/// Histogram, ns: BufferPool::FetchPage end-to-end latency (hit or miss).
inline constexpr char kBpFetchNs[] = "bp.fetch_ns";
/// Histogram, ns: wait to acquire the pool mutex in FetchPage.
inline constexpr char kBpLatchWaitNs[] = "bp.latch_wait_ns";
/// Counter: dirty write-backs (an eviction victim or run, or a FlushAll
/// sweep) that had to flush the WAL first because a record describing the
/// page was not durable yet (the WAL rule, docs/BUFFERPOOL.md).
inline constexpr char kBpWalForcedWritebacks[] = "bp.wal_forced_writebacks";
/// Histogram, ns: wait to acquire an off-line index's latch in the
/// secondary-index delete passes.
inline constexpr char kIdxLatchWaitNs[] = "idx.latch_wait_ns";
/// Histogram, records: LogManager::Sync batch size.
inline constexpr char kWalSyncRecords[] = "wal.sync_records";
/// Histogram, ns: LogManager::Sync host latency.
inline constexpr char kWalSyncNs[] = "wal.sync_ns";
/// Histogram, tasks: scheduler ready-queue depth sampled at each dispatch.
inline constexpr char kSchedQueueDepth[] = "sched.queue_depth";
/// Histogram, pages: leaves freed/merged per bulk-delete leaf pass (one
/// observation per index/table phase).
inline constexpr char kLeafPagesReorganized[] = "leaf.pages_reorganized";
/// Counter: phase bodies dispatched by the scheduler.
inline constexpr char kSchedPhasesDispatched[] = "sched.phases_dispatched";
/// Counter: key-index and table passes whose PhaseDone a level barrier
/// recorded.
inline constexpr char kCkptInline[] = "ckpt.inline";
/// Counter: secondary-index passes, whose PhaseDone waits for finalize.
inline constexpr char kCkptDeferred[] = "ckpt.deferred";
/// Counter: LogManager::Sync calls.
inline constexpr char kWalSyncs[] = "wal.syncs";
/// Counter: WAL flush batches (one leader fsync each with the file backend).
/// Under group commit this stays well below wal.syncs when syncers coalesce.
inline constexpr char kWalFsyncs[] = "wal.fsyncs";
/// Histogram, records: records covered per WAL flush batch (group-commit
/// coalescing factor).
inline constexpr char kWalGroupSize[] = "wal.group_size";
/// Histogram, ns: host latency of one WAL backend append + fsync (file
/// backend only; the sim backend observes nothing here).
inline constexpr char kWalFsyncNs[] = "wal.fsync_ns";
/// Counter: sequential write runs issued by DiskManager::WriteRun.
inline constexpr char kDiskWriteRuns[] = "disk.write_runs";
/// Counter: DiskManager::Flush barriers (one fsync each with the file
/// backend), taken at checkpoint/commit boundaries.
inline constexpr char kDiskSyncs[] = "disk.syncs";
/// Counter: §3.1 updater ops appended to off-line indices' side-files.
inline constexpr char kSideFileAppends[] = "sidefile.appends";
/// Gauge, records: side-file depth (ops not yet caught up), sampled by the
/// catch-up drain.
inline constexpr char kSideFileDepth[] = "sidefile.depth";
/// Counter: scratch pages allocated by side-file shard spills.
inline constexpr char kSideFileSpillPages[] = "sidefile.spill_pages";
/// Histogram, records: side-file ops applied per catch-up batch.
inline constexpr char kSideFileDrainBatch[] = "sidefile.drain_batch";
/// Histogram, ns: host latency of one catch-up batch (sort + merge apply).
inline constexpr char kSideFileCatchupNs[] = "sidefile.catchup_ns";
/// Gauge, count: currently connected network sessions (src/net server).
inline constexpr char kNetConns[] = "net.conns";
/// Counter: connections admitted by the server's accept loop.
inline constexpr char kNetAccepted[] = "net.accepted";
/// Counter: connections refused because max_sessions were already active.
inline constexpr char kNetRejected[] = "net.rejected";
/// Counter: request-frame payload bytes received across all sessions.
inline constexpr char kNetBytesIn[] = "net.bytes_in";
/// Counter: response-frame payload bytes sent across all sessions.
inline constexpr char kNetBytesOut[] = "net.bytes_out";
/// Histogram, ns: server-side statement latency — frame decoded to response
/// written (the end-to-end number minus client-side socket time).
inline constexpr char kNetReqNs[] = "net.req_ns";
}  // namespace metric_names

enum class MetricKind { kCounter, kGauge, kHistogram };

struct MetricInfo {
  const char* name;
  MetricKind kind;
  const char* unit;  ///< "ns", "pages", "records", "tasks", "count"
};

/// Static enumeration of every metric the library registers, for Explain()
/// and docs. A registry may additionally hold dynamically registered names.
const std::vector<MetricInfo>& KnownMetrics();

/// KnownMetrics() entry for `name`, or null for dynamically registered
/// names (which report as counters of unknown unit).
const MetricInfo* FindKnownMetric(const std::string& name);

/// Monotonic counter; relaxed increments, safe from any thread.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins gauge; relaxed store/load, safe from any thread.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log2-bucket histogram of non-negative 64-bit samples. Bucket b counts
/// samples whose bit width is b: bucket 0 holds v == 0, bucket b >= 1 holds
/// 2^(b-1) <= v < 2^b. 65 buckets cover the full int64 range; counts and the
/// running sum are relaxed atomics so Observe is wait-free and safe from any
/// thread, and Snapshot may run concurrently (it sees some consistent-enough
/// interleaving, exact once writers quiesce).
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void Observe(int64_t value) {
    if (value < 0) value = 0;
    int bucket = BucketOf(value);
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  static int BucketOf(int64_t value) {
    int b = 0;
    uint64_t v = static_cast<uint64_t>(value);
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b;
  }
  /// Inclusive upper bound of bucket b (2^b - 1; bucket 0 -> 0).
  static int64_t BucketUpperBound(int bucket);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// Point-in-time copy of one histogram; buckets trimmed of trailing zeros.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  int64_t sum = 0;
  std::vector<int64_t> buckets;

  /// Value below which `quantile` (0..1) of the samples fall, estimated at
  /// bucket granularity (returns the containing bucket's upper bound).
  int64_t ApproxQuantile(double quantile) const;

  /// Lower edge of the same containing bucket: the quantile lies in
  /// (ApproxQuantileLo(q), ApproxQuantile(q)]. Quantization is a full power
  /// of two, so consumers that report only the upper bound overstate by up
  /// to 2x; report both (loadgen's *_lo JSON fields).
  int64_t ApproxQuantileLo(double quantile) const;

  HistogramSnapshot operator-(const HistogramSnapshot& o) const;
  bool operator==(const HistogramSnapshot& o) const {
    return name == o.name && count == o.count && sum == o.sum &&
           buckets == o.buckets;
  }
};

/// Point-in-time copy of a whole registry, in registration order. Supports
/// subtraction so per-statement deltas come from two snapshots of the same
/// registry (names are matched positionally; both sides must come from the
/// same registry, which registers the known metrics in a fixed order).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;  ///< and gauges
  std::vector<HistogramSnapshot> histograms;

  MetricsSnapshot operator-(const MetricsSnapshot& o) const;
  bool operator==(const MetricsSnapshot& o) const {
    return counters == o.counters && histograms == o.histograms;
  }
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
  int64_t CounterOr(const std::string& name, int64_t fallback = 0) const;
};

/// Named metric registry. Registration (name -> instrument) takes a mutex;
/// instrumentation sites resolve their instruments once at wiring time and
/// then increment/observe through raw pointers, so the hot path never locks.
/// Instruments live as long as the registry.
class MetricsRegistry {
 public:
  /// Registers every KnownMetrics() entry up front so snapshots of any two
  /// registries are positionally comparable.
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Look up (registering on first use) by name. Pointers stay valid for the
  /// registry's lifetime. A name keeps its first kind: asking for a counter
  /// under a histogram's name returns a distinct instrument suffixed "!kind"
  /// rather than aliasing.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  // Registration order preserved for positional snapshot deltas.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

}  // namespace obs
}  // namespace bulkdel

#endif  // BULKDEL_OBS_METRICS_H_
