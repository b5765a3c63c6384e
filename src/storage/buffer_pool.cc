#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "util/clock.h"

namespace bulkdel {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    data_ = other.data_;
    // Leave `other` fully invalid: a moved-from guard must not report the
    // old page id or unpin the frame a second time.
    other.pool_ = nullptr;
    other.frame_ = 0;
    other.page_id_ = kInvalidPageId;
    other.data_ = nullptr;
  }
  return *this;
}

void PageGuard::MarkDirty() {
  if (pool_ == nullptr) return;
  pool_->MarkDirtyFrame(frame_, page_id_);
}

void PageGuard::Release() {
  if (pool_ == nullptr) return;
  // Invalidate before unpinning so a re-entrant or repeated Release (e.g.
  // explicit Release() followed by the destructor) is a no-op.
  BufferPool* pool = pool_;
  pool_ = nullptr;
  data_ = nullptr;
  pool->Unpin(frame_, page_id_);
  frame_ = 0;
  page_id_ = kInvalidPageId;
}

BufferPool::BufferPool(DiskManager* disk, size_t budget_bytes)
    : disk_(disk),
      budget_bytes_(budget_bytes),
      total_frames_(std::max<size_t>(budget_bytes / kPageSize, 4)),
      frames_(total_frames_) {
  free_frames_.reserve(total_frames_);
  for (size_t i = total_frames_; i-- > 0;) free_frames_.push_back(i);
}

Result<PageGuard> BufferPool::NewPage() {
  BULKDEL_ASSIGN_OR_RETURN(PageId page_id, disk_->AllocatePage());
  std::lock_guard<std::mutex> lock(mu_);
  BULKDEL_ASSIGN_OR_RETURN(size_t f, AcquireFrameLocked());
  Frame& frame = frames_[f];
  frame.page_id = page_id;
  frame.pin_count = 1;
  frame.dirty = true;  // a new page must reach disk even if never modified
  frame.in_use = true;
  if (!frame.data) frame.data = std::make_unique<char[]>(kPageSize);
  std::memset(frame.data.get(), 0, kPageSize);
  MapPageLocked(page_id, f);
  return PageGuard(this, f, page_id, frame.data.get());
}

Result<PageGuard> BufferPool::FetchPage(PageId page_id) {
  // Latency observation is gated on the trace recorder so the default fetch
  // path never reads the clock; tracing changes only host-time metrics,
  // never the simulated I/O (which depends on the page-access sequence).
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const bool timed = fetch_ns_hist_ != nullptr && recorder.enabled();
  const int64_t t0 = timed ? MonotonicNanos() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (timed) {
    int64_t waited = MonotonicNanos() - t0;
    latch_wait_hist_->Observe(waited);
    if (waited > 1000) {
      recorder.RecordComplete(obs::TraceCategory::kLatch, "pool.latch", t0,
                              t0 + waited, "page",
                              static_cast<int64_t>(page_id));
    }
  }
  if (size_t hit = FrameOfLocked(page_id); hit != kNoFrame) {
    ++stats_.hits;
    Frame& frame = frames_[hit];
    if (frame.pin_count == 0 && frame.in_lru) {
      lru_.erase(frame.lru_it);
      frame.in_lru = false;
    }
    ++frame.pin_count;
    if (timed) fetch_ns_hist_->Observe(MonotonicNanos() - t0);
    return PageGuard(this, hit, page_id, frame.data.get());
  }
  ++stats_.misses;
  if (recorder.enabled()) {
    recorder.RecordInstant(obs::TraceCategory::kPool, "pool.fetch", "page",
                           static_cast<int64_t>(page_id));
  }
  BULKDEL_ASSIGN_OR_RETURN(size_t f, AcquireFrameLocked());
  Frame& frame = frames_[f];
  if (!frame.data) frame.data = std::make_unique<char[]>(kPageSize);
  Status read = disk_->ReadPage(page_id, frame.data.get());
  if (!read.ok()) {
    free_frames_.push_back(f);
    return read;
  }
  frame.page_id = page_id;
  frame.pin_count = 1;
  frame.dirty = false;
  frame.in_use = true;
  MapPageLocked(page_id, f);
  if (timed) fetch_ns_hist_->Observe(MonotonicNanos() - t0);
  return PageGuard(this, f, page_id, frame.data.get());
}

Status BufferPool::DeletePage(PageId page_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (size_t f = FrameOfLocked(page_id); f != kNoFrame) {
      Frame& frame = frames_[f];
      if (frame.pin_count > 0) {
        return Status::FailedPrecondition("DeletePage on pinned page " +
                                          std::to_string(page_id));
      }
      if (frame.in_lru) {
        lru_.erase(frame.lru_it);
        frame.in_lru = false;
      }
      frame.in_use = false;
      frame.dirty = false;
      free_frames_.push_back(f);
      page_table_[page_id] = kNoFrame;
    }
  }
  return disk_->FreePage(page_id);
}

Status BufferPool::FlushAllLocked(const std::vector<PageId>* pages) {
  // Flush in page-id order: a checkpoint is a mostly-sequential sweep.
  std::vector<std::pair<PageId, size_t>> dirty;  // (page id, frame)
  auto add = [&](size_t f) {
    if (f != kNoFrame && frames_[f].in_use && frames_[f].dirty) {
      dirty.emplace_back(frames_[f].page_id, f);
    }
  };
  if (pages != nullptr) {
    for (PageId p : *pages) add(FrameOfLocked(p));
  } else {
    for (size_t i = 0; i < frames_.size(); ++i) add(i);
  }
  std::sort(dirty.begin(), dirty.end());
  if (dirty.empty()) return Status::OK();
  obs::TraceSpan span(obs::TraceCategory::kPool, "pool.flush", "pages");
  span.set_arg(static_cast<int64_t>(dirty.size()));
  if (injector_ != nullptr) {
    BULKDEL_RETURN_IF_ERROR(injector_->Check(fault_sites::kPoolFlush));
  }
  // The sweep may write pinned frames whose stamp is not final yet, so it
  // forces the whole appended tail rather than the frames' stamps.
  if (wal_appended_seq_ != nullptr) {
    ForceLogLocked(wal_appended_seq_->load(std::memory_order_acquire));
  }
  // Write maximal adjacent-page-id runs with one WriteRun each.
  for (size_t i = 0; i < dirty.size();) {
    run_.clear();
    do {
      run_.push_back(dirty[i++].second);
    } while (i < dirty.size() && dirty[i].first == dirty[i - 1].first + 1);
    BULKDEL_RETURN_IF_ERROR(WriteRunLocked());
  }
  return Status::OK();
}

Status BufferPool::WriteRunLocked() {
  // Per-page charges and fault checks are identical to page-at-a-time
  // writes, but the disk mutex is taken once per run.
  run_datas_.clear();
  for (size_t f : run_) run_datas_.push_back(frames_[f].data.get());
  BULKDEL_RETURN_IF_ERROR(
      disk_->WriteRun(frames_[run_.front()].page_id, run_datas_));
  for (size_t f : run_) frames_[f].dirty = false;
  stats_.dirty_writebacks += static_cast<int64_t>(run_.size());
  return Status::OK();
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushAllLocked();
}

Status BufferPool::FlushPages(const std::vector<PageId>& pages) {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushAllLocked(&pages);
}

Status BufferPool::Reset() {
  // Flush and drop under one continuous hold of the pool mutex: a page a
  // concurrent thread dirties while we sweep cannot slip between the flush
  // and the drop and be discarded with its update unwritten.
  std::lock_guard<std::mutex> lock(mu_);
  BULKDEL_RETURN_IF_ERROR(FlushAllLocked());
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& frame = frames_[i];
    if (!frame.in_use) continue;
    if (frame.pin_count > 0) {
      return Status::FailedPrecondition("Reset with pinned page " +
                                        std::to_string(frame.page_id));
    }
    if (frame.in_lru) {
      lru_.erase(frame.lru_it);
      frame.in_lru = false;
    }
    frame.in_use = false;
    page_table_[frame.page_id] = kNoFrame;
    free_frames_.push_back(i);
  }
  return Status::OK();
}

void BufferPool::DiscardAllForCrashTest() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  page_table_.clear();
  free_frames_.clear();
  for (size_t i = frames_.size(); i-- > 0;) {
    frames_[i] = Frame();
    free_frames_.push_back(i);
  }
  // A restarted process has cold counters; carrying pre-crash hit/miss
  // numbers into recovery double-counts the crash-sweep's per-run I/O.
  stats_ = BufferPoolStats();
}

void BufferPool::MapPageLocked(PageId page_id, size_t frame) {
  if (page_id >= page_table_.size()) page_table_.resize(page_id + 1, kNoFrame);
  page_table_[page_id] = frame;
}

void BufferPool::SetWalRule(const std::atomic<uint64_t>* appended_seq,
                            std::function<bool(uint64_t)> sync_to) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_appended_seq_ = appended_seq;
  wal_sync_to_ = std::move(sync_to);
}

void BufferPool::ForceLogLocked(uint64_t seq) {
  if (!wal_sync_to_) return;
  if (wal_sync_to_(seq) && wal_forced_counter_ != nullptr) {
    wal_forced_counter_->Add(1);
  }
}

void BufferPool::SetFaultInjector(FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = injector;
}

void BufferPool::SetMetrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  if (metrics == nullptr) {
    fetch_ns_hist_ = nullptr;
    latch_wait_hist_ = nullptr;
    wal_forced_counter_ = nullptr;
    return;
  }
  fetch_ns_hist_ = metrics->histogram(obs::metric_names::kBpFetchNs);
  latch_wait_hist_ = metrics->histogram(obs::metric_names::kBpLatchWaitNs);
  wal_forced_counter_ =
      metrics->counter(obs::metric_names::kBpWalForcedWritebacks);
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BufferPool::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = BufferPoolStats();
}

void BufferPool::Unpin(size_t frame_index, PageId page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& frame = frames_[frame_index];
  if (!frame.in_use || frame.page_id != page_id) return;  // already recycled
  // WAL stamp: the caller appended every record describing its change to
  // this page before unpinning, so they all lie at or below the log's
  // appended sequence now. Read under the pool mutex, so successive stamps
  // of one frame never go backwards.
  if (frame.dirty && wal_appended_seq_ != nullptr) {
    frame.wal_seq = wal_appended_seq_->load(std::memory_order_acquire);
  }
  if (frame.pin_count > 0 && --frame.pin_count == 0) {
    lru_.push_front(frame_index);
    frame.lru_it = lru_.begin();
    frame.in_lru = true;
  }
}

void BufferPool::MarkDirtyFrame(size_t frame_index, PageId page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& frame = frames_[frame_index];
  if (frame.in_use && frame.page_id == page_id) frame.dirty = true;
}

Result<size_t> BufferPool::AcquireFrameLocked() {
  if (!free_frames_.empty()) {
    size_t f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  if (lru_.empty()) {
    return Status::ResourceExhausted(
        "buffer pool: all " + std::to_string(total_frames_) +
        " frames pinned");
  }
  size_t victim = lru_.back();
  lru_.pop_back();
  Frame& frame = frames_[victim];
  frame.in_lru = false;
  if (obs::TraceRecorder::Global().enabled()) {
    obs::TraceRecorder::Global().RecordInstant(
        obs::TraceCategory::kPool, frame.dirty ? "pool.evict_dirty"
                                               : "pool.evict",
        "page", static_cast<int64_t>(frame.page_id));
  }
  if (frame.dirty) {
    if (injector_ != nullptr) {
      BULKDEL_RETURN_IF_ERROR(injector_->Check(
          fault_sites::kPoolEvict, "page " + std::to_string(frame.page_id)));
    }
    // The victim's run: its resident, dirty, unpinned neighbors of adjacent
    // page ids, found in one scan outward from the victim. One sequential
    // write replaces several random ones; the neighbors stay resident,
    // merely cleaned. The run stops at a neighbor stamped later than the
    // victim, so it never forces the log further than the victim alone.
    const uint64_t stamp = frame.wal_seq;
    size_t f = 0;
    auto joins = [&](PageId p) {
      f = FrameOfLocked(p);
      if (f == kNoFrame) return false;
      const Frame& neighbor = frames_[f];
      return neighbor.dirty && neighbor.pin_count == 0 &&
             neighbor.wal_seq <= stamp;
    };
    run_.clear();
    for (PageId p = frame.page_id; p > 0 && joins(p - 1); --p) {
      run_.push_back(f);
    }
    std::reverse(run_.begin(), run_.end());
    run_.push_back(victim);
    for (PageId p = frame.page_id; joins(p + 1); ++p) run_.push_back(f);
    ForceLogLocked(stamp);
    BULKDEL_RETURN_IF_ERROR(WriteRunLocked());
    stats_.coalesced_writebacks += static_cast<int64_t>(run_.size() - 1);
  }
  page_table_[frame.page_id] = kNoFrame;
  frame.in_use = false;
  ++stats_.evictions;
  return victim;
}

}  // namespace bulkdel
