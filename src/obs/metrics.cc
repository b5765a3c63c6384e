#include "obs/metrics.h"

#include <algorithm>

namespace bulkdel {
namespace obs {

const std::vector<MetricInfo>& KnownMetrics() {
  static const std::vector<MetricInfo> kMetrics = {
      {metric_names::kBpFetchNs, MetricKind::kHistogram, "ns"},
      {metric_names::kBpLatchWaitNs, MetricKind::kHistogram, "ns"},
      {metric_names::kBpWalForcedWritebacks, MetricKind::kCounter, "count"},
      {metric_names::kIdxLatchWaitNs, MetricKind::kHistogram, "ns"},
      {metric_names::kWalSyncRecords, MetricKind::kHistogram, "records"},
      {metric_names::kWalSyncNs, MetricKind::kHistogram, "ns"},
      {metric_names::kSchedQueueDepth, MetricKind::kHistogram, "tasks"},
      {metric_names::kLeafPagesReorganized, MetricKind::kHistogram, "pages"},
      {metric_names::kSchedPhasesDispatched, MetricKind::kCounter, "count"},
      {metric_names::kCkptInline, MetricKind::kCounter, "count"},
      {metric_names::kCkptDeferred, MetricKind::kCounter, "count"},
      {metric_names::kWalSyncs, MetricKind::kCounter, "count"},
      {metric_names::kWalFsyncs, MetricKind::kCounter, "count"},
      {metric_names::kWalGroupSize, MetricKind::kHistogram, "records"},
      {metric_names::kWalFsyncNs, MetricKind::kHistogram, "ns"},
      {metric_names::kDiskWriteRuns, MetricKind::kCounter, "count"},
      {metric_names::kDiskSyncs, MetricKind::kCounter, "count"},
      {metric_names::kSideFileAppends, MetricKind::kCounter, "count"},
      {metric_names::kSideFileDepth, MetricKind::kGauge, "records"},
      {metric_names::kSideFileSpillPages, MetricKind::kCounter, "count"},
      {metric_names::kSideFileDrainBatch, MetricKind::kHistogram, "records"},
      {metric_names::kSideFileCatchupNs, MetricKind::kHistogram, "ns"},
      {metric_names::kNetConns, MetricKind::kGauge, "count"},
      {metric_names::kNetAccepted, MetricKind::kCounter, "count"},
      {metric_names::kNetRejected, MetricKind::kCounter, "count"},
      {metric_names::kNetBytesIn, MetricKind::kCounter, "count"},
      {metric_names::kNetBytesOut, MetricKind::kCounter, "count"},
      {metric_names::kNetReqNs, MetricKind::kHistogram, "ns"},
  };
  return kMetrics;
}

const MetricInfo* FindKnownMetric(const std::string& name) {
  for (const MetricInfo& info : KnownMetrics()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

int64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= 63) return INT64_MAX;
  return (int64_t{1} << bucket) - 1;
}

namespace {

/// Index of the log2 bucket containing the quantile, or -1 when empty.
int QuantileBucket(const HistogramSnapshot& h, double quantile) {
  if (h.count <= 0) return -1;
  int64_t rank = static_cast<int64_t>(quantile * static_cast<double>(h.count));
  if (rank >= h.count) rank = h.count - 1;
  int64_t seen = 0;
  for (size_t b = 0; b < h.buckets.size(); ++b) {
    seen += h.buckets[b];
    if (seen > rank) return static_cast<int>(b);
  }
  return static_cast<int>(h.buckets.size()) - 1;
}

}  // namespace

int64_t HistogramSnapshot::ApproxQuantile(double quantile) const {
  int bucket = QuantileBucket(*this, quantile);
  return bucket < 0 ? 0 : Histogram::BucketUpperBound(bucket);
}

int64_t HistogramSnapshot::ApproxQuantileLo(double quantile) const {
  int bucket = QuantileBucket(*this, quantile);
  // Bucket b holds (2^(b-1) - 1, 2^b - 1]; its lower edge is the previous
  // bucket's upper bound (bucket 0 holds exactly 0, so lo == hi there).
  return bucket <= 0 ? 0 : Histogram::BucketUpperBound(bucket - 1);
}

HistogramSnapshot HistogramSnapshot::operator-(
    const HistogramSnapshot& o) const {
  HistogramSnapshot d;
  d.name = name;
  d.count = count - o.count;
  d.sum = sum - o.sum;
  d.buckets.resize(std::max(buckets.size(), o.buckets.size()), 0);
  for (size_t b = 0; b < d.buckets.size(); ++b) {
    int64_t lhs = b < buckets.size() ? buckets[b] : 0;
    int64_t rhs = b < o.buckets.size() ? o.buckets[b] : 0;
    d.buckets[b] = lhs - rhs;
  }
  while (!d.buckets.empty() && d.buckets.back() == 0) d.buckets.pop_back();
  return d;
}

namespace {

/// `other`'s value for `name`, or 0 when absent (a metric registered after
/// the `before` snapshot was taken contributes its full value to the delta).
int64_t CounterIn(const MetricsSnapshot& other, const std::string& name,
                  size_t position_hint) {
  if (position_hint < other.counters.size() &&
      other.counters[position_hint].first == name) {
    return other.counters[position_hint].second;
  }
  for (const auto& [n, v] : other.counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* HistogramIn(const MetricsSnapshot& other,
                                     const std::string& name,
                                     size_t position_hint) {
  if (position_hint < other.histograms.size() &&
      other.histograms[position_hint].name == name) {
    return &other.histograms[position_hint];
  }
  for (const HistogramSnapshot& h : other.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

MetricsSnapshot MetricsSnapshot::operator-(const MetricsSnapshot& o) const {
  MetricsSnapshot d;
  d.counters.reserve(counters.size());
  for (size_t i = 0; i < counters.size(); ++i) {
    d.counters.emplace_back(counters[i].first,
                            counters[i].second -
                                CounterIn(o, counters[i].first, i));
  }
  d.histograms.reserve(histograms.size());
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot* rhs = HistogramIn(o, histograms[i].name, i);
    if (rhs != nullptr) {
      d.histograms.push_back(histograms[i] - *rhs);
    } else {
      d.histograms.push_back(histograms[i]);
    }
  }
  return d;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

int64_t MetricsSnapshot::CounterOr(const std::string& name,
                                   int64_t fallback) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return fallback;
}

MetricsRegistry::MetricsRegistry() {
  for (const MetricInfo& info : KnownMetrics()) {
    switch (info.kind) {
      case MetricKind::kCounter:
        counter(info.name);
        break;
      case MetricKind::kGauge:
        gauge(info.name);
        break;
      case MetricKind::kHistogram:
        histogram(info.name);
        break;
    }
  }
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, c] : counters_) {
    if (n == name) return c.get();
  }
  counters_.emplace_back(name, std::make_unique<Counter>());
  return counters_.back().second.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, g] : gauges_) {
    if (n == name) return g.get();
  }
  gauges_.emplace_back(name, std::make_unique<Gauge>());
  return gauges_.back().second.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, h] : histograms_) {
    if (n == name) return h.get();
  }
  histograms_.emplace_back(name, std::make_unique<Histogram>());
  return histograms_.back().second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.counters.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    int top = Histogram::kBuckets;
    while (top > 0 && h->bucket(top - 1) == 0) --top;
    hs.buckets.reserve(static_cast<size_t>(top));
    for (int b = 0; b < top; ++b) hs.buckets.push_back(h->bucket(b));
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

}  // namespace obs
}  // namespace bulkdel
