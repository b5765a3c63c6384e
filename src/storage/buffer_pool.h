#ifndef BULKDEL_STORAGE_BUFFER_POOL_H_
#define BULKDEL_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace bulkdel {

namespace obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace obs

class BufferPool;

/// RAII pin on a buffered page. While a guard lives, the frame cannot be
/// evicted. Destroying (or Release()-ing) the guard unpins the page and, if
/// MarkDirty() was called, schedules a write-back on eviction/flush.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame, PageId page_id, char* data)
      : pool_(pool), frame_(frame), page_id_(page_id), data_(data) {}
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }
  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Marks the page as modified; it will be written back before eviction.
  void MarkDirty();

  /// Unpins immediately (idempotent).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;  // slot index in the pool's frame array
  PageId page_id_ = kInvalidPageId;
  char* data_ = nullptr;
};

struct BufferPoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t dirty_writebacks = 0;
  /// Extra dirty neighbors written as part of an eviction's write-back run
  /// (beyond the victim itself).
  int64_t coalesced_writebacks = 0;

  BufferPoolStats operator-(const BufferPoolStats& o) const {
    BufferPoolStats d;
    d.hits = hits - o.hits;
    d.misses = misses - o.misses;
    d.evictions = evictions - o.evictions;
    d.dirty_writebacks = dirty_writebacks - o.dirty_writebacks;
    d.coalesced_writebacks = coalesced_writebacks - o.coalesced_writebacks;
    return d;
  }
};

/// Fixed-budget LRU buffer pool over a DiskManager.
///
/// The byte budget models the experiment's "available main memory": the
/// paper varies it between 2 and 10 MB (Fig. 9). The pool never holds more
/// than budget/kPageSize frames; every miss beyond that evicts the
/// least-recently-used unpinned frame. A dirty victim is written back
/// together with its resident, dirty, unpinned neighbors of adjacent page
/// ids, as one sequential run (a run of one is a single-page write).
///
/// One frame array, page table, free list, LRU list and stats block, all
/// guarded by one mutex, so the eviction order is a function of the
/// page-access sequence alone (docs/BUFFERPOOL.md).
///
/// Thread safety: every operation takes the pool mutex. Concurrent mutation
/// of the *contents* of distinct pinned pages is safe; callers serialize
/// access to the same page with higher-level latches.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t budget_bytes);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Allocates a fresh zeroed page on disk and pins it (dirty).
  Result<PageGuard> NewPage();

  /// Pins `page_id`, reading it from disk on a miss.
  Result<PageGuard> FetchPage(PageId page_id);

  /// Drops `page_id` from the pool (must be unpinned) and frees it on disk.
  Status DeletePage(PageId page_id);

  /// Writes back every dirty frame in one page-id-ordered sweep (adjacent
  /// ids batched into sequential WriteRuns — same per-page charges, fewer
  /// disk-mutex round trips). Frames stay resident. The database calls it
  /// only through Database::FlushStructures, which holds off DML writers.
  Status FlushAll();

  /// The FlushAll sweep restricted to the resident dirty frames of `pages`:
  /// a write-ordering barrier, since no page dirtied after it returns can
  /// reach the disk before them.
  Status FlushPages(const std::vector<PageId>& pages);

  /// Writes back and drops every frame (must all be unpinned). Used to
  /// simulate a clean shutdown or to reset cache state between benchmark
  /// phases. The pool mutex is held from the flush through the frame drop,
  /// so a page dirtied by a concurrent thread either misses the sweep
  /// entirely (and survives resident) or is flushed before being dropped —
  /// never dropped with an unwritten update.
  Status Reset();

  /// Drops every frame *without* writing dirty ones back, and zeroes the
  /// stats (a restarted process starts with cold counters). This is the
  /// crash switch for the recovery tests: volatile state vanishes, the
  /// DiskManager keeps only what was flushed.
  void DiscardAllForCrashTest();

  /// Installs the WAL rule: log records become durable before the page
  /// changes they describe. `appended_seq` is the log's count of appended
  /// records; every dirty frame is stamped with its value when unpinned, so
  /// callers must append a page change's record before unpinning the page.
  /// Before a dirty eviction victim's run is written back, `sync_to(stamp)`
  /// must make every record through the victim's stamp durable and return
  /// whether it had to flush the log to do so (counted by
  /// bp.wal_forced_writebacks). A run never takes a neighbor stamped later
  /// than its victim, so it forces the log no further than the victim
  /// alone. FlushAll passes the whole appended tail instead, since it may
  /// write pinned frames whose stamp is not final.
  /// `sync_to` runs with the pool mutex held and must not call back into
  /// the pool. With no rule installed, unpin and write-back do no log work
  /// at all.
  void SetWalRule(const std::atomic<uint64_t>* appended_seq,
                  std::function<bool(uint64_t)> sync_to);

  /// Resolves the pool's metric instruments (bp.fetch_ns, bp.latch_wait_ns,
  /// bp.wal_forced_writebacks) from `metrics` (nullptr = none; the registry
  /// must outlive the pool). The clock-reading observations only happen
  /// while the global TraceRecorder is enabled, so the default fetch path
  /// stays clock-free.
  void SetMetrics(obs::MetricsRegistry* metrics);

  /// Installs a fault injector on the write-back paths (nullptr = none; the
  /// injector must outlive the pool): `pool.evict` fires before a dirty
  /// eviction victim is written back, `pool.flush` before a FlushAll or
  /// FlushPages sweep that has a dirty frame to write.
  void SetFaultInjector(FaultInjector* injector);

  size_t capacity_frames() const { return total_frames_; }
  /// The configured byte budget (not rounded down to whole frames): what the
  /// Fig. 9 memory sweep labels report.
  size_t budget_bytes() const { return budget_bytes_; }
  BufferPoolStats stats() const;
  void ResetStats();
  DiskManager* disk() { return disk_; }

 private:
  friend class PageGuard;

  struct Frame {
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    bool in_use = false;
    /// The log's appended sequence at the last unpin while dirty: a
    /// write-back must first make the log durable through it.
    uint64_t wal_seq = 0;
    std::unique_ptr<char[]> data;
    std::list<size_t>::iterator lru_it;
    bool in_lru = false;
  };

  void Unpin(size_t frame, PageId page_id);
  void MarkDirtyFrame(size_t frame, PageId page_id);

  /// Finds a frame to host a new page: a never-used frame or the LRU victim.
  /// Called with mu_ held. Writes back a dirty victim with its run.
  Result<size_t> AcquireFrameLocked();

  /// The page-id-ordered dirty sweep, of `pages` only when non-null; mu_
  /// must be held.
  Status FlushAllLocked(const std::vector<PageId>* pages = nullptr);

  /// Writes the dirty frames in `run_` (adjacent page ids, ascending) with
  /// one WriteRun and marks them clean. mu_ must be held.
  Status WriteRunLocked();

  /// Forces the log through `seq` before a write-back (the WAL rule).
  /// Called with mu_ held; no-op without a rule.
  void ForceLogLocked(uint64_t seq);

  /// The frame holding `page_id`, or kNoFrame; mu_ must be held.
  size_t FrameOfLocked(PageId page_id) const {
    return page_id < page_table_.size() ? page_table_[page_id] : kNoFrame;
  }
  void MapPageLocked(PageId page_id, size_t frame);

  static constexpr size_t kNoFrame = SIZE_MAX;

  DiskManager* disk_;
  const size_t budget_bytes_;
  const size_t total_frames_;

  mutable std::mutex mu_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_frames_;
  /// Page id -> frame index (kNoFrame if not resident). Page ids are dense
  /// offsets into the page file, so the table is indexed by page id and
  /// every probe, a fetch's or an eviction run's neighbor scan, is one read.
  std::vector<size_t> page_table_;
  std::list<size_t> lru_;  // front = most recent, back = victim candidate
  BufferPoolStats stats_;
  /// The run WriteRunLocked writes, and its page images; reused across
  /// write-backs.
  std::vector<size_t> run_;
  std::vector<const char*> run_datas_;

  /// The WAL rule (SetWalRule), written and read under mu_.
  const std::atomic<uint64_t>* wal_appended_seq_ = nullptr;
  std::function<bool(uint64_t)> wal_sync_to_;
  FaultInjector* injector_ = nullptr;
  /// Written under mu_ (SetMetrics); read on the fetch path.
  obs::Histogram* fetch_ns_hist_ = nullptr;
  obs::Histogram* latch_wait_hist_ = nullptr;
  obs::Counter* wal_forced_counter_ = nullptr;
};

}  // namespace bulkdel

#endif  // BULKDEL_STORAGE_BUFFER_POOL_H_
