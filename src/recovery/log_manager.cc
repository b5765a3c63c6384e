#include "recovery/log_manager.h"

#include <set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "recovery/wal_codec.h"
#include "util/clock.h"

namespace bulkdel {

LogManager::LogManager() : backend_(std::make_unique<SimWalBackend>()) {}

LogManager::LogManager(const std::string& path, bool truncate) {
  auto file = std::make_unique<FileWalBackend>(path, truncate);
  if (!truncate) {
    std::string image;
    open_status_ = file->ReadAll(&image);
    if (open_status_.ok()) {
      WalScanResult scan = DecodeLogRecords(image);
      durable_ = std::move(scan.records);
      clean_bytes_ = scan.clean_bytes;
      torn_tail_ = scan.torn_tail;
      durable_seq_ = durable_.size();
      appended_seq_ = durable_seq_;
      for (const LogRecord& r : durable_) {
        if (r.bd_id > last_bd_id_) last_bd_id_ = r.bd_id;
      }
    }
  }
  backend_ = std::move(file);
}

LogManager::~LogManager() = default;

void LogManager::SetMetrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  if (metrics == nullptr) {
    syncs_counter_ = nullptr;
    fsyncs_counter_ = nullptr;
    sync_records_hist_ = nullptr;
    sync_ns_hist_ = nullptr;
    group_size_hist_ = nullptr;
    fsync_ns_hist_ = nullptr;
    return;
  }
  syncs_counter_ = metrics->counter(obs::metric_names::kWalSyncs);
  fsyncs_counter_ = metrics->counter(obs::metric_names::kWalFsyncs);
  sync_records_hist_ = metrics->histogram(obs::metric_names::kWalSyncRecords);
  sync_ns_hist_ = metrics->histogram(obs::metric_names::kWalSyncNs);
  group_size_hist_ = metrics->histogram(obs::metric_names::kWalGroupSize);
  fsync_ns_hist_ = metrics->histogram(obs::metric_names::kWalFsyncNs);
}

void LogManager::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const bool timed = sync_ns_hist_ != nullptr && recorder.enabled();
  const int64_t t0 = timed ? MonotonicNanos() : 0;
  const int64_t batch = static_cast<int64_t>(volatile_.size());
  if (syncs_counter_ != nullptr) {
    syncs_counter_->Add(1);
    sync_records_hist_->Observe(batch);
  }
  // Emitted whether or not an injected fault interrupts the sync below.
  struct SyncNote {
    bool timed;
    int64_t t0;
    int64_t batch;
    obs::Histogram* ns_hist;
    obs::TraceRecorder* recorder;
    ~SyncNote() {
      if (!timed) return;
      int64_t t1 = MonotonicNanos();
      ns_hist->Observe(t1 - t0);
      recorder->RecordComplete(obs::TraceCategory::kWal, "wal.sync", t0, t1,
                               "records", batch);
    }
  } note{timed, t0, batch, sync_ns_hist_, &recorder};

  const uint64_t target = appended_seq_;
  if (!group_commit_) {
    // Ablation baseline: every Sync pays its own flush + fsync, waiting out
    // any flush already in flight first.
    while (sync_in_flight_) {
      if (injector_ != nullptr && injector_->tripped()) return;
      cv_.wait(lock);
    }
    if (injector_ != nullptr && injector_->tripped()) return;
    FlushLocked(lock);
    return;
  }
  while (durable_seq_ < target) {
    if (injector_ != nullptr && injector_->tripped()) return;
    if (target > appended_seq_) return;  // our batch was lost mid-flush
    if (sync_in_flight_) {
      // A leader is flushing; our records may be riding along. Wait and
      // re-check — if the leader's batch did not cover us, we become the
      // next leader.
      cv_.wait(lock);
      continue;
    }
    FlushLocked(lock);
  }
}

bool LogManager::SyncTo(uint64_t seq) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (durable_seq_ >= seq) return false;
  }
  Sync();
  return true;
}

void LogManager::FlushLocked(std::unique_lock<std::mutex>& lock) {
  sync_in_flight_ = true;
  std::vector<LogRecord> moving = std::move(volatile_);
  volatile_.clear();

  bool torn_fire = false;
  uint64_t rng = 0;
  if (injector_ != nullptr) {
    FaultInjector::Hit hit;
    Status s = injector_->CheckWrite(
        fault_sites::kLogSync, &hit,
        std::to_string(moving.size()) + " pending record(s)");
    if (!s.ok()) {
      // kCrash fired: the whole moving batch evaporates before any byte
      // reaches the medium. Rewind so the append/durable invariant holds
      // for whatever a (dead) process appends afterwards.
      appended_seq_ -= moving.size();
      sync_in_flight_ = false;
      cv_.notify_all();
      return;
    }
    if (hit.fire) {
      torn_fire = true;
      rng = hit.rng;
    }
  }

  // The crash hit mid-flush: a random prefix of the batch's frames is fully
  // durable, the next frame is half-written — a strict byte prefix of a
  // frame can never verify (its length header overruns the log end or its
  // CRC fails), so the restart scan stops exactly there.
  size_t full = moving.size();
  std::string bytes;
  size_t clean_add = 0;
  if (torn_fire && !moving.empty()) {
    full = static_cast<size_t>(rng % moving.size());
  }
  for (size_t i = 0; i < full; ++i) {
    EncodeLogRecord(moving[i], &bytes);
  }
  clean_add = bytes.size();
  if (torn_fire && full < moving.size()) {
    std::string frame;
    EncodeLogRecord(moving[full], &frame);
    size_t partial = 1 + static_cast<size_t>(rng >> 32) % (frame.size() - 1);
    bytes.append(frame, 0, partial);
  }

  // Physical I/O outside the lock: appenders and future group-commit
  // followers keep making progress while the leader fsyncs.
  const bool is_file = backend_->is_file();
  lock.unlock();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const bool timed = is_file || recorder.enabled();
  const int64_t t0 = timed ? MonotonicNanos() : 0;
  Status io = backend_->Append(bytes);
  if (io.ok()) io = backend_->SyncBytes();
  const int64_t t1 = timed ? MonotonicNanos() : 0;
  lock.lock();

  if (fsyncs_counter_ != nullptr) {
    fsyncs_counter_->Add(1);
    group_size_hist_->Observe(static_cast<int64_t>(moving.size()));
    if (is_file) fsync_ns_hist_->Observe(t1 - t0);
  }
  if (recorder.enabled()) {
    recorder.RecordComplete(obs::TraceCategory::kWal, "wal.fsync", t0, t1,
                            "records", static_cast<int64_t>(moving.size()));
  }

  if (!io.ok()) {
    // The medium rejected the batch (disk full, ...): nothing of it is
    // durable. Treat like a lost batch so waiters do not hang.
    appended_seq_ -= moving.size();
    open_status_ = io;
    sync_in_flight_ = false;
    cv_.notify_all();
    return;
  }
  for (size_t i = 0; i < full; ++i) {
    durable_.push_back(std::move(moving[i]));
  }
  durable_seq_ += full;
  clean_bytes_ += clean_add;
  if (torn_fire) {
    torn_tail_ = full < moving.size();
    appended_seq_ -= moving.size() - full;  // the tail is gone for good
  }
  sync_in_flight_ = false;
  cv_.notify_all();
}

void LogManager::DropVolatileTail() {
  std::unique_lock<std::mutex> lock(mu_);
  while (sync_in_flight_) cv_.wait(lock);
  appended_seq_ -= volatile_.size();
  volatile_.clear();
}

size_t LogManager::DropTornTail() {
  std::unique_lock<std::mutex> lock(mu_);
  while (sync_in_flight_) cv_.wait(lock);
  if (!torn_tail_) return 0;
  size_t garbage =
      backend_->size() > clean_bytes_ ? backend_->size() - clean_bytes_ : 0;
  (void)backend_->Truncate(clean_bytes_);
  torn_tail_ = false;
  return garbage;
}

Status LogManager::ScanDurable(
    const std::function<Status(const LogRecord&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const LogRecord& r : durable_) {
    BULKDEL_RETURN_IF_ERROR(fn(r));
  }
  return Status::OK();
}

void LogManager::TruncateCompleted() {
  std::unique_lock<std::mutex> lock(mu_);
  while (sync_in_flight_) cv_.wait(lock);
  std::set<uint64_t> completed;
  for (const LogRecord& r : durable_) {
    if (r.type == LogRecordType::kEnd) completed.insert(r.bd_id);
  }
  if (completed.empty()) return;
  std::vector<LogRecord> kept;
  std::string image;
  for (LogRecord& r : durable_) {
    if (completed.count(r.bd_id) != 0) continue;
    EncodeLogRecord(r, &image);
    kept.push_back(std::move(r));
  }
  (void)backend_->Rewrite(image);
  clean_bytes_ = image.size();
  torn_tail_ = false;
  durable_ = std::move(kept);
}

}  // namespace bulkdel
