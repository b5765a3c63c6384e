#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>

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

BufferPool::BufferPool(DiskManager* disk, BufferPoolOptions options)
    : disk_(disk), options_(options), budget_bytes_(options.budget_bytes) {
  total_frames_ = std::max<size_t>(budget_bytes_ / kPageSize, 4);
  // Clamp the shard count so every shard keeps at least ~8 frames: a shard
  // too small to hold a descent path's pins would fail spuriously.
  size_t shards = std::max<size_t>(options.shards, 1);
  shards = std::min(shards, std::max<size_t>(total_frames_ / 8, 1));
  options_.shards = shards;
  shards_.reserve(shards);
  size_t base = total_frames_ / shards;
  size_t rem = total_frames_ % shards;
  for (size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    size_t n = base + (s < rem ? 1 : 0);
    shard->frames.resize(n);
    shard->free_frames.reserve(n);
    for (size_t i = n; i-- > 0;) shard->free_frames.push_back(i);
    shards_.push_back(std::move(shard));
  }
}

Result<PageGuard> BufferPool::NewPage() {
  BULKDEL_ASSIGN_OR_RETURN(PageId page_id, disk_->AllocatePage());
  Shard& shard = *shards_[ShardOf(page_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  BULKDEL_ASSIGN_OR_RETURN(size_t f, AcquireFrameLocked(shard));
  Frame& frame = shard.frames[f];
  frame.page_id = page_id;
  frame.pin_count = 1;
  frame.dirty = true;  // a new page must reach disk even if never modified
  frame.in_use = true;
  if (!frame.data) frame.data = std::make_unique<char[]>(kPageSize);
  std::memset(frame.data.get(), 0, kPageSize);
  shard.page_table[page_id] = f;
  return PageGuard(this, f, page_id, frame.data.get());
}

Result<PageGuard> BufferPool::FetchPage(PageId page_id) {
  // Latency observation is gated on the trace recorder so the default fetch
  // path never reads the clock; tracing changes only host-time metrics,
  // never the simulated I/O (which depends on the page-access sequence).
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const bool timed = fetch_ns_hist_ != nullptr && recorder.enabled();
  const int64_t t0 = timed ? MonotonicNanos() : 0;
  Shard& shard = *shards_[ShardOf(page_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (timed) {
    int64_t waited = MonotonicNanos() - t0;
    latch_wait_hist_->Observe(waited);
    if (waited > 1000) {
      recorder.RecordComplete(obs::TraceCategory::kLatch, "pool.shard_latch",
                              t0, t0 + waited, "page",
                              static_cast<int64_t>(page_id));
    }
  }
  auto it = shard.page_table.find(page_id);
  if (it != shard.page_table.end()) {
    ++shard.stats.hits;
    Frame& frame = shard.frames[it->second];
    if (frame.pin_count == 0 && frame.in_lru) {
      shard.lru.erase(frame.lru_it);
      frame.in_lru = false;
    }
    ++frame.pin_count;
    if (timed) fetch_ns_hist_->Observe(MonotonicNanos() - t0);
    return PageGuard(this, it->second, page_id, frame.data.get());
  }
  ++shard.stats.misses;
  if (recorder.enabled()) {
    recorder.RecordInstant(obs::TraceCategory::kPool, "pool.fetch", "page",
                           static_cast<int64_t>(page_id));
  }
  BULKDEL_ASSIGN_OR_RETURN(size_t f, AcquireFrameLocked(shard));
  Frame& frame = shard.frames[f];
  if (!frame.data) frame.data = std::make_unique<char[]>(kPageSize);
  Status read = disk_->ReadPage(page_id, frame.data.get());
  if (!read.ok()) {
    shard.free_frames.push_back(f);
    return read;
  }
  frame.page_id = page_id;
  frame.pin_count = 1;
  frame.dirty = false;
  frame.in_use = true;
  shard.page_table[page_id] = f;
  if (timed) fetch_ns_hist_->Observe(MonotonicNanos() - t0);
  return PageGuard(this, f, page_id, frame.data.get());
}

Status BufferPool::DeletePage(PageId page_id) {
  Shard& shard = *shards_[ShardOf(page_id)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.page_table.find(page_id);
    if (it != shard.page_table.end()) {
      Frame& frame = shard.frames[it->second];
      if (frame.pin_count > 0) {
        return Status::FailedPrecondition("DeletePage on pinned page " +
                                          std::to_string(page_id));
      }
      if (frame.in_lru) {
        shard.lru.erase(frame.lru_it);
        frame.in_lru = false;
      }
      frame.in_use = false;
      frame.dirty = false;
      shard.free_frames.push_back(it->second);
      shard.page_table.erase(it);
    }
  }
  return disk_->FreePage(page_id);
}

std::vector<std::unique_lock<std::mutex>> BufferPool::LockAllShards() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  // Index order is the global lock order; every cross-shard operation takes
  // the latches this way, so they cannot deadlock against each other.
  for (const auto& shard : shards_) locks.emplace_back(shard->mu);
  return locks;
}

Status BufferPool::FlushAllLocked() {
  // Flush in global page-id order: a checkpoint is a mostly-sequential sweep,
  // and keeping the order identical across shard counts keeps the simulated
  // I/O identical too.
  struct DirtyRef {
    PageId page_id;
    Shard* shard;
    size_t frame;
  };
  std::vector<DirtyRef> dirty;
  for (auto& shard : shards_) {
    for (size_t i = 0; i < shard->frames.size(); ++i) {
      if (shard->frames[i].in_use && shard->frames[i].dirty) {
        dirty.push_back(DirtyRef{shard->frames[i].page_id, shard.get(), i});
      }
    }
  }
  std::sort(dirty.begin(), dirty.end(),
            [](const DirtyRef& a, const DirtyRef& b) {
              return a.page_id < b.page_id;
            });
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
  // Write maximal adjacent-page-id runs with one WriteRun each: per-page
  // charges and fault checks are identical to page-at-a-time writes, but the
  // disk mutex is taken once per run.
  size_t i = 0;
  while (i < dirty.size()) {
    size_t j = i + 1;
    while (j < dirty.size() && dirty[j].page_id == dirty[j - 1].page_id + 1) {
      ++j;
    }
    std::vector<const char*> datas;
    datas.reserve(j - i);
    for (size_t k = i; k < j; ++k) {
      datas.push_back(
          dirty[k].shard->frames[dirty[k].frame].data.get());
    }
    BULKDEL_RETURN_IF_ERROR(disk_->WriteRun(dirty[i].page_id, datas));
    for (size_t k = i; k < j; ++k) {
      dirty[k].shard->frames[dirty[k].frame].dirty = false;
      ++dirty[k].shard->stats.dirty_writebacks;
    }
    i = j;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  auto locks = LockAllShards();
  return FlushAllLocked();
}

Status BufferPool::Reset() {
  // Flush and drop under one continuous hold of every shard latch: a page a
  // concurrent thread dirties while we sweep cannot slip between the flush
  // and the drop and be discarded with its update unwritten.
  auto locks = LockAllShards();
  BULKDEL_RETURN_IF_ERROR(FlushAllLocked());
  for (auto& shard : shards_) {
    for (size_t i = 0; i < shard->frames.size(); ++i) {
      Frame& frame = shard->frames[i];
      if (!frame.in_use) continue;
      if (frame.pin_count > 0) {
        return Status::FailedPrecondition("Reset with pinned page " +
                                          std::to_string(frame.page_id));
      }
      if (frame.in_lru) {
        shard->lru.erase(frame.lru_it);
        frame.in_lru = false;
      }
      frame.in_use = false;
      shard->page_table.erase(frame.page_id);
      shard->free_frames.push_back(i);
    }
  }
  return Status::OK();
}

void BufferPool::DiscardAllForCrashTest() {
  auto locks = LockAllShards();
  for (auto& shard : shards_) {
    shard->lru.clear();
    shard->page_table.clear();
    shard->free_frames.clear();
    for (size_t i = shard->frames.size(); i-- > 0;) {
      shard->frames[i] = Frame();
      shard->free_frames.push_back(i);
    }
    // A restarted process has cold counters; carrying pre-crash hit/miss
    // numbers into recovery double-counts the crash-sweep's per-run I/O.
    shard->stats = BufferPoolStats();
  }
}

void BufferPool::SetWalRule(const std::atomic<uint64_t>* appended_seq,
                            std::function<bool(uint64_t)> sync_to) {
  auto locks = LockAllShards();
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
  auto locks = LockAllShards();
  injector_ = injector;
}

void BufferPool::SetMetrics(obs::MetricsRegistry* metrics) {
  auto locks = LockAllShards();
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
  auto locks = LockAllShards();
  BufferPoolStats total;
  for (const auto& shard : shards_) total += shard->stats;
  return total;
}

std::vector<BufferPoolStats> BufferPool::shard_stats() const {
  auto locks = LockAllShards();
  std::vector<BufferPoolStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->stats);
  return out;
}

void BufferPool::ResetStats() {
  auto locks = LockAllShards();
  for (auto& shard : shards_) shard->stats = BufferPoolStats();
}

void BufferPool::Unpin(size_t frame_index, PageId page_id) {
  Shard& shard = *shards_[ShardOf(page_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  Frame& frame = shard.frames[frame_index];
  if (!frame.in_use || frame.page_id != page_id) return;  // already recycled
  // WAL stamp: the caller appended every record describing its change to
  // this page before unpinning, so they all lie at or below the log's
  // appended sequence now. Read under the shard latch, so successive stamps
  // of one frame never go backwards.
  if (frame.dirty && wal_appended_seq_ != nullptr) {
    frame.wal_seq = wal_appended_seq_->load(std::memory_order_acquire);
  }
  if (frame.pin_count > 0 && --frame.pin_count == 0) {
    shard.lru.push_front(frame_index);
    frame.lru_it = shard.lru.begin();
    frame.in_lru = true;
  }
}

void BufferPool::MarkDirtyFrame(size_t frame_index, PageId page_id) {
  Shard& shard = *shards_[ShardOf(page_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  Frame& frame = shard.frames[frame_index];
  if (frame.in_use && frame.page_id == page_id) frame.dirty = true;
}

Result<size_t> BufferPool::AcquireFrameLocked(Shard& shard) {
  if (!shard.free_frames.empty()) {
    size_t f = shard.free_frames.back();
    shard.free_frames.pop_back();
    return f;
  }
  if (shard.lru.empty()) {
    return Status::ResourceExhausted(
        "buffer pool: all frames pinned (shard capacity " +
        std::to_string(shard.frames.size()) + " of " +
        std::to_string(total_frames_) + " total)");
  }
  size_t victim = shard.lru.back();
  shard.lru.pop_back();
  Frame& frame = shard.frames[victim];
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
    if (options_.coalesce_writebacks) {
      // Batch the victim with resident dirty unpinned neighbors that form a
      // contiguous page-id run: one sequential write replaces several random
      // ones. Neighbors stay resident, merely cleaned. This changes the
      // simulated write classification, which is why the knob defaults off.
      uint64_t run_seq = frame.wal_seq;
      PageId first = frame.page_id;
      while (true) {
        auto it = shard.page_table.find(first - 1);
        if (first == 0 || it == shard.page_table.end()) break;
        Frame& left = shard.frames[it->second];
        if (!left.dirty || left.pin_count > 0) break;
        run_seq = std::max(run_seq, left.wal_seq);
        first = first - 1;
      }
      PageId last = frame.page_id;
      while (true) {
        auto it = shard.page_table.find(last + 1);
        if (it == shard.page_table.end()) break;
        Frame& right = shard.frames[it->second];
        if (!right.dirty || right.pin_count > 0) break;
        run_seq = std::max(run_seq, right.wal_seq);
        last = last + 1;
      }
      ForceLogLocked(run_seq);
      std::vector<const char*> datas;
      datas.reserve(last - first + 1);
      for (PageId p = first; p <= last; ++p) {
        datas.push_back(
            shard.frames[shard.page_table.find(p)->second].data.get());
      }
      BULKDEL_RETURN_IF_ERROR(disk_->WriteRun(first, datas));
      for (PageId p = first; p <= last; ++p) {
        shard.frames[shard.page_table.find(p)->second].dirty = false;
        ++shard.stats.dirty_writebacks;
      }
      shard.stats.coalesced_writebacks +=
          static_cast<int64_t>(last - first);
    } else {
      ForceLogLocked(frame.wal_seq);
      BULKDEL_RETURN_IF_ERROR(
          disk_->WritePage(frame.page_id, frame.data.get()));
      ++shard.stats.dirty_writebacks;
      frame.dirty = false;
    }
  }
  shard.page_table.erase(frame.page_id);
  frame.in_use = false;
  ++shard.stats.evictions;
  return victim;
}

}  // namespace bulkdel
