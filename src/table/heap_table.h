#ifndef BULKDEL_TABLE_HEAP_TABLE_H_
#define BULKDEL_TABLE_HEAP_TABLE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/buffer_pool.h"
#include "table/rid.h"
#include "table/schema.h"
#include "util/relaxed_atomic.h"
#include "util/result.h"
#include "util/status.h"

namespace bulkdel {

/// Heap file of fixed-size tuples over the buffer pool.
///
/// Pages are chained in insertion order through their `next_page` header
/// field; since new pages are allocated in ascending page-id order, a chain
/// walk is a sequential scan and ascending-RID access is ascending-page
/// access. Tuple slots freed by deletes are reused by later inserts
/// (free-space management à la [6,14] of the paper, simplified to a
/// pages-with-space list).
///
/// The header page persists {first, last, count, pages}; the in-memory copy
/// is authoritative between FlushMeta() calls, and RecountFromScan() rebuilds
/// the count after a crash.
///
/// Every chain walk (Scan, ScanDeleteIf, EnsureExtentMap, Drop) is WalkChain,
/// and every delete (Delete, ScanDeleteIf, BulkDeleteSortedRids and the
/// extent-drop pass's boundary pages) removes a page's tuples with the one
/// per-page step, DeleteSlots.
class HeapTable {
 public:
  /// Creates a new empty table; allocates its header page.
  static Result<HeapTable> Create(BufferPool* pool, const Schema& schema);

  /// Opens an existing table rooted at `header_page`.
  static Result<HeapTable> Open(BufferPool* pool, const Schema& schema,
                                PageId header_page);

  HeapTable(HeapTable&&) = default;
  HeapTable& operator=(HeapTable&&) = default;

  PageId header_page() const { return header_page_; }
  const Schema& schema() const { return *schema_; }
  uint64_t tuple_count() const { return tuple_count_; }
  uint32_t num_data_pages() const { return num_data_pages_; }

  /// Appends/fills a tuple; returns its RID.
  Result<Rid> Insert(const char* tuple);

  /// The RID the next Insert() will return, without placing a tuple. May
  /// allocate (and link) a fresh tail page when every known page is full, so
  /// the prediction is stable — lets a caller WAL-log the row *before*
  /// mutating it. Call under the same serialization as the Insert() itself.
  Result<Rid> PeekInsertRid();

  /// Idempotent targeted insert for WAL replay: places `tuple` at exactly
  /// `rid`. OK if the slot already holds an identical tuple; Corruption if
  /// it holds different bytes. Re-formats and re-links an uninitialized
  /// tail page (a pre-crash append whose formatting never became durable).
  Status InsertAt(const Rid& rid, const char* tuple);

  /// Copies the tuple at `rid` into `out` (tuple_size bytes).
  Status Get(const Rid& rid, char* out);

  /// Deletes the tuple at `rid`. If `deleted_tuple` is non-null the tuple
  /// bytes are copied out first. NotFound if the slot is empty.
  Status Delete(const Rid& rid, char* deleted_tuple = nullptr);

  /// Sequential scan in chain (≈ RID) order. The visitor may not mutate the
  /// table. Stops early on non-OK from the visitor.
  Status Scan(const std::function<Status(const Rid&, const char*)>& visitor);

  /// Scan that deletes every tuple for which `pred` returns true, invoking
  /// `on_delete` with the doomed tuple first. This is the probe half of the
  /// hash-based bulk-delete operator on the base table. With `with_dead`,
  /// free slots are offered too: `pred` and then `on_delete` see their dead
  /// bytes, and nothing is deleted or counted for them.
  Status ScanDeleteIf(
      const std::function<bool(const Rid&, const char*)>& pred,
      const std::function<void(const Rid&, const char*)>& on_delete,
      uint64_t* deleted_count, bool with_dead = false);

  /// Deletes an ascending-sorted RID list in one physical pass, touching each
  /// page once. `on_delete` sees each tuple before removal. RIDs that do not
  /// exist are counted in `*missing` (idempotent re-execution after a crash
  /// relies on this); with `with_dead`, `on_delete` also sees the dead bytes
  /// of each such RID's free slot. This is the merge-based bulk-delete
  /// operator on the base table (the R ⋉̸ step of the paper's Fig. 3).
  Status BulkDeleteSortedRids(
      const std::vector<Rid>& rids,
      const std::function<void(const Rid&, const char*)>& on_delete,
      uint64_t* deleted_count, uint64_t* missing = nullptr,
      bool with_dead = false);

  /// Extent-drop bulk delete: deletes an ascending-sorted RID list like
  /// BulkDeleteSortedRids, but pages whose every live tuple is doomed (the
  /// in-memory extent map proves `occupied(P) == doomed RIDs on P`) are
  /// *dropped whole*: spliced out of the page chain without ever being read.
  /// `on_drop(page, tuples)` fires once per dropped page before the splice
  /// (the recovery layer logs kExtentDrop); an error aborts with the page
  /// intact. Dropped pages are appended to `dropped_out` and stay allocated —
  /// the caller frees them (BufferPool::DeletePage) once the statement's End
  /// record is durable (freeing earlier would let the allocator alias them
  /// before the drop is recoverable). `force_drop` (crash resume) names
  /// pages whose kExtentDrop record is already durable: if still chained
  /// they are re-dropped idempotently, if already detached they are skipped.
  /// Boundary pages (partially covered) take the ordinary read-modify-write
  /// path with `on_delete`.
  Status BulkDeleteSortedRidsExtentDrop(
      const std::vector<Rid>& rids, const std::vector<PageId>& force_drop,
      const std::function<Status(PageId, uint64_t)>& on_drop,
      const std::function<void(const Rid&, const char*)>& on_delete,
      uint64_t* deleted_count, std::vector<PageId>* dropped_out);

  /// Verified-erasure support (DatabaseOptions::scrub_deleted_pages): zeroes
  /// the tuple bytes of every *unoccupied* slot among `rids` (grouped by
  /// page — one fetch per distinct page for a sorted list). Pages in
  /// `skip_pages` are skipped (extent-dropped pages get zeroed whole by the
  /// caller); occupied slots are skipped too, so RIDs reused by later
  /// inserts are safe. Dirties pages through the pool; the caller flushes.
  Status ScrubDeadSlots(const std::vector<Rid>& rids,
                        const std::unordered_set<PageId>& skip_pages);

  /// Builds the in-memory extent map (chain-order page list + per-page live
  /// counts) if it is not current: one sequential chain walk. Create() starts
  /// with a valid empty map maintained incrementally by DML; Open()
  /// invalidates it, so the first extent-drop after a reopen pays the walk.
  Status EnsureExtentMap();

  /// Persists header metadata (count, chain endpoints).
  Status FlushMeta();

  /// Rebuilds the tuple count by scanning; used after crash recovery.
  Status RecountFromScan();

  /// Frees every data page and the header page. The table is unusable after.
  Status Drop();

 private:
  HeapTable(BufferPool* pool, const Schema* schema, PageId header_page)
      : pool_(pool), schema_(schema), header_page_(header_page) {}

  Status AppendDataPage(PageId* new_page);
  Status LoadMeta();

  /// The one chain walk: fetches the data pages in chain order and calls
  /// `visit(page, hp)` -> Status with each pinned. The successor is read
  /// before `visit`, so `visit` may release (and free) the page.
  template <typename Visit>
  Status WalkChain(Visit&& visit);

  /// The one per-page delete step: `pick(erase)` calls `erase(slot)` for
  /// each slot to delete on the pinned `page`; `erase` deletes the slot's
  /// tuple if it holds one (`on_delete` sees it first) and says whether it
  /// did. A free slot's dead bytes go to `on_delete` only `with_dead`. Then
  /// the page's bookkeeping: dirty mark, tuple count, extent-map occupancy
  /// and pages_with_space_. Returns the number deleted.
  template <typename Pick>
  uint64_t DeleteSlots(
      PageGuard& page,
      const std::function<void(const Rid&, const char*)>& on_delete,
      bool with_dead, Pick&& pick);

  /// BulkDeleteSortedRids that leaves the pages in `unread` unread.
  Status DeleteSortedRids(
      const std::vector<Rid>& rids, const std::unordered_set<PageId>& unread,
      const std::function<void(const Rid&, const char*)>& on_delete,
      uint64_t* deleted_count, uint64_t* missing, bool with_dead);

  /// Extent-map occupancy bookkeeping. A page the valid map does not know
  /// invalidates the map (fail safe: the next extent-drop rebuilds it).
  void BumpOccupancy(PageId page, int delta);
  void ExtentMapAppend(PageId page, uint32_t occupied);

  BufferPool* pool_;
  const Schema* schema_;
  PageId header_page_;
  PageId first_data_page_ = kInvalidPageId;
  PageId last_data_page_ = kInvalidPageId;
  // Relaxed atomics: read by the planner while updaters insert/delete.
  RelaxedAtomic<uint64_t> tuple_count_ = 0;
  RelaxedAtomic<uint32_t> num_data_pages_ = 0;
  /// Pages known to have at least one free slot (may contain stale entries;
  /// verified on use).
  std::vector<PageId> pages_with_space_;

  /// In-memory extent map: the page chain in order with per-page live
  /// counts, powering the extent-drop full-coverage proof without reading
  /// the pages. Valid from Create(); invalidated by Open() and rebuilt
  /// lazily by EnsureExtentMap().
  struct Extent {
    PageId page;
    uint32_t occupied;
  };
  std::vector<Extent> extents_;
  std::unordered_map<PageId, size_t> extent_pos_;
  bool extent_map_valid_ = false;
};

}  // namespace bulkdel

#endif  // BULKDEL_TABLE_HEAP_TABLE_H_
