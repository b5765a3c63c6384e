#ifndef BULKDEL_BTREE_BTREE_H_
#define BULKDEL_BTREE_BTREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "btree/btree_node.h"
#include "storage/buffer_pool.h"
#include "table/rid.h"
#include "util/relaxed_atomic.h"
#include "util/result.h"
#include "util/status.h"

namespace bulkdel {

/// Per-index options.
struct IndexOptions {
  /// Reject duplicate keys on insert. Unique indices are processed first by
  /// the vertical executor and brought back on-line at commit (§3.1).
  bool unique = false;

  /// Cap on entries per leaf / inner node; 0 means "whatever fits the page".
  /// The paper's Experiment 3 manufactures a height-4 index by artificially
  /// storing only 100 keys per inner node; these fields reproduce that.
  uint16_t max_leaf_entries = 0;
  uint16_t max_inner_entries = 0;

  /// Vertical processing order hint (§3.1.3): "indices which are critical
  /// for the performance of applications can be processed first while the
  /// processing of non-critical indices can be delayed". Higher = earlier,
  /// within the same uniqueness class (unique indices always come first).
  int16_t priority = 0;
};

/// Post-deletion reorganization policy for bulk deletes (§2.3).
enum class ReorgMode {
  /// Reclaim a page only when it becomes completely empty (Johnson & Shasha's
  /// "free-at-empty" [9]); the paper's experimental setting.
  kFreeAtEmpty,
  /// After the leaf pass: compact the leaf level (shift entries left across
  /// leaves), free the emptied tail, and rebuild all inner levels from the
  /// leaf chain ("process each layer individually", §2.3).
  kCompactAndRebuild,
  /// Incremental base-node scheme adapted from Zou & Salzberg [26]: compact
  /// one level-1 subtree at a time, updating its inner node in place.
  kIncrementalBaseNode,
};

/// Counters reported by the bulk-delete primitives.
struct BtreeBulkDeleteStats {
  uint64_t entries_deleted = 0;
  uint64_t leaves_visited = 0;
  uint64_t leaves_freed = 0;
  /// Leaves freed by the range leaf-run pass *without* per-entry removal
  /// (fully covered by [lo, hi]); also counted in leaves_freed.
  uint64_t leaves_dropped = 0;
  uint64_t skipped_undeletable = 0;
};

/// B-link tree (B⁺-tree with sibling chains on every level [10]) mapping
/// int64 keys to RIDs. All (key, RID) entries live in the leaves; inner nodes
/// hold composite separators only. Supports:
///
///  * record-at-a-time insert/delete (Jannink-style delete [7] with
///    free-at-empty page reclamation [9]) — the *traditional* path,
///  * leaf-level sequential scans via the sibling chain,
///  * bulk load from a sorted entry stream (for drop & create),
///  * the paper's leaf-level bulk-delete primitives: merge with a sorted
///    key/entry list, and predicate probing (hash/partitioned plans), with
///    pluggable reorganization (§2.3).
///
/// Thread model: structural operations are single-writer; the txn layer
/// serializes writers with an index latch and uses per-entry "undeletable"
/// flags for the direct-propagation protocol (§3.1.2).
class BTree {
 public:
  /// Creates an empty tree; allocates a meta page and an empty root leaf.
  static Result<BTree> Create(BufferPool* pool, IndexOptions options = {});
  /// Opens an existing tree rooted at `meta_page`.
  static Result<BTree> Open(BufferPool* pool, PageId meta_page,
                            IndexOptions options = {});

  BTree(BTree&&) = default;
  BTree& operator=(BTree&&) = default;

  PageId meta_page() const { return meta_page_; }
  PageId root() const { return root_; }
  int height() const { return height_; }
  uint64_t entry_count() const { return entry_count_; }
  uint32_t num_leaves() const { return num_leaves_; }
  uint32_t num_inner_nodes() const { return num_inner_; }
  const IndexOptions& options() const { return options_; }

  uint16_t leaf_capacity() const;
  uint16_t inner_capacity() const;

  /// Inserts (key, rid). `flags` may carry kEntryUndeletable. Fails with
  /// AlreadyExists on duplicate key for unique indices, or on an exactly
  /// duplicated (key, rid) pair otherwise.
  Status Insert(int64_t key, const Rid& rid, uint16_t flags = 0);

  /// Traditional root-to-leaf delete of the exact entry (key, rid).
  Status Delete(int64_t key, const Rid& rid);

  /// Deletes the first entry with `key`; returns its RID via `deleted_rid`.
  Status DeleteKey(int64_t key, Rid* deleted_rid = nullptr);

  /// All RIDs indexed under `key` (crosses leaf boundaries).
  Result<std::vector<Rid>> Search(int64_t key);

  /// Visits entries with lo <= key <= hi in order.
  Status RangeScan(int64_t lo, int64_t hi,
                   const std::function<Status(int64_t, const Rid&)>& visitor);

  /// Sequential scan of the whole leaf level.
  Status ScanAll(
      const std::function<Status(int64_t, const Rid&, uint16_t)>& visitor);

  /// Replaces the tree contents with `entries` (must be (key,rid)-sorted and
  /// duplicate-free as composites). `fill` in (0,1] controls node fill.
  Status BulkLoad(const std::vector<KeyRid>& entries, double fill = 1.0);

  /// Set-oriented bulk insert of sorted, composite-unique entries — the dual
  /// of the bulk delete, needed by bulk UPDATE (§1: a bulk update is a bulk
  /// delete plus a bulk insert on the affected index). Large batches merge
  /// the existing leaf level with the new entries and rebuild (one
  /// sequential pass); small batches fall back to ordered point inserts,
  /// which keep the descent path hot. Fails with AlreadyExists (tree
  /// unchanged) on duplicate keys for unique indices or duplicate composites.
  Status BulkInsertSorted(const std::vector<KeyRid>& entries);

  /// Merge-based bulk delete: removes every entry whose key appears in
  /// `keys` (ascending, unique). Deleted RIDs are appended to `deleted_rids`
  /// (in key order) when non-null; `on_delete` additionally sees every
  /// removed (key, RID) — the recovery layer logs them as WAL records.
  /// This is the ⋉̸-by-key operator.
  Status BulkDeleteSortedKeys(
      const std::vector<int64_t>& keys, ReorgMode reorg,
      std::vector<Rid>* deleted_rids, BtreeBulkDeleteStats* stats = nullptr,
      const std::function<void(int64_t, const Rid&)>& on_delete = nullptr);

  /// Merge-based bulk delete of exact composite entries (ascending, unique).
  Status BulkDeleteSortedEntries(const std::vector<KeyRid>& entries,
                                 ReorgMode reorg,
                                 BtreeBulkDeleteStats* stats = nullptr);

  /// Probe-based bulk delete: one pass over the leaf range [lo, hi] (or the
  /// whole level when unbounded), removing entries for which `pred` returns
  /// true. This is the ⋉̸-by-RID operator (classic-hash and partitioned
  /// plans).
  Status BulkDeleteByPredicate(
      const std::function<bool(int64_t, const Rid&)>& pred, ReorgMode reorg,
      BtreeBulkDeleteStats* stats = nullptr,
      std::optional<int64_t> lo = std::nullopt,
      std::optional<int64_t> hi = std::nullopt,
      const std::function<void(int64_t, const Rid&)>& on_delete = nullptr);

  /// Range bulk delete with the leaf-run fast path: removes every entry with
  /// lo <= key <= hi. Leaves *fully* covered by the range (and free of
  /// kEntryUndeletable markers) are unlinked and freed whole — their entries
  /// are never touched individually and the pages are never written: each
  /// contiguous run of dropped leaves is spliced out of the sibling chain
  /// with two boundary-neighbor writes, so the pass charges one read per
  /// dropped leaf (to harvest its RIDs) plus parent maintenance; only the
  /// two boundary leaves see per-entry removal. Deleted RIDs are appended to `deleted_rids` in key
  /// order when non-null. `on_leaf_drop` fires once per dropped leaf *before*
  /// it is detached, with the leaf's page id and its full entry list (the
  /// recovery layer logs one kRangeLeafRun record); returning an error
  /// aborts the pass with the leaf intact. `on_delete` sees each
  /// individually removed boundary entry (logged as kEntryDeleted). An
  /// inverted range (lo > hi) deletes nothing.
  ///
  /// With `dropped_pages` non-null, no page is returned to the allocator
  /// during the pass: every node the pass empties (dropped leaves, collapsed
  /// inner nodes) is unlinked and detached but its page id is pushed onto
  /// `dropped_pages` for the caller to free later. Range deletes free whole
  /// subchains, and an immediate free lets a concurrent list spill reuse the
  /// page while stale on-disk siblings/parents still point at it — after a
  /// crash, recovery's re-traversal would then walk into arbitrary bytes.
  /// The bulk-delete executor frees the collected pages only once the
  /// statement's End record is durable.
  Status BulkDeleteRange(
      int64_t lo, int64_t hi, ReorgMode reorg,
      std::vector<Rid>* deleted_rids, BtreeBulkDeleteStats* stats = nullptr,
      const std::function<Status(PageId, const std::vector<KeyRid>&)>&
          on_leaf_drop = nullptr,
      const std::function<void(int64_t, const Rid&)>& on_delete = nullptr,
      std::vector<PageId>* dropped_pages = nullptr);

  /// Read-only merge lookup: one leaf-level pass visiting every entry whose
  /// key appears in `keys` (ascending). The set-oriented analogue of probing
  /// the index per key — used to check referential integrity constraints
  /// vertically, before any deletion happens (§2.1).
  Status MergeLookupSortedKeys(
      const std::vector<int64_t>& keys,
      const std::function<Status(int64_t, const Rid&)>& visitor);

  /// Number of entries whose key appears in `keys` (ascending).
  Result<uint64_t> CountMatchingSortedKeys(const std::vector<int64_t>& keys);

  /// Clears every kEntryUndeletable flag (index goes back on-line, §3.1.2).
  Status ClearUndeletableFlags();

  /// Persists meta (root, height, counts).
  Status FlushMeta();

  /// Re-derives entry/node counts by walking every level's sibling chain and
  /// persists them. Used after crash recovery, when the cached meta counters
  /// may predate the interrupted bulk delete.
  Status RecountFromScan();

  /// Frees every page of the tree including the meta page.
  Status Drop();

  /// Exhaustively validates structural invariants: composite ordering inside
  /// nodes, separator bounds, uniform leaf depth, consistent sibling chains
  /// on every level, and count bookkeeping. Test/debug support.
  Status CheckInvariants();

  /// Collects the leaf chain page-ids left to right (test support).
  Result<std::vector<PageId>> LeafChain();

 private:
  BTree(BufferPool* pool, PageId meta_page, IndexOptions options)
      : pool_(pool), meta_page_(meta_page), options_(options) {}

  struct Split {
    KeyRid sep;
    PageId right;
  };

  Status LoadMeta();
  Result<PageId> NewNode(uint8_t level);
  Status FreeNode(PageId page);

  /// Root-to-leaf descent by composite probe; returns the leaf page id.
  Result<PageId> DescendToLeaf(const KeyRid& probe);

  Result<std::optional<Split>> InsertRec(PageId node_page, int64_t key,
                                         const Rid& rid, uint16_t flags);
  Status SplitLeaf(PageGuard& leaf_guard, Split* split);
  Status SplitInner(PageGuard& inner_guard, Split* split);

  /// Removes `child` from its parent at `parent_level`, locating the parent
  /// by descending with `probe` (the child's pre-deletion smallest entry) and
  /// walking the parent level's sibling chain. Cascades upward when a parent
  /// becomes childless; collapses the root when it degenerates.
  Status RemoveChildAtLevel(uint8_t parent_level, PageId child,
                            const KeyRid& probe);

  /// Detaches `node` from its level's sibling chain.
  Status UnlinkFromChain(PageId node);

  /// Collapses a keyless inner root chain: while the root is inner with a
  /// single child, promote the child.
  Status MaybeCollapseRoot();

  /// A leaf a bulk pass emptied; FinishBulkDelete frees it (free-at-empty).
  /// Each pass removes a leaf's entries with BTreeNode::LeafCompact.
  struct EmptyLeaf {
    PageId page;
    KeyRid probe;  // smallest entry before the pass touched the leaf
  };
  Status FinishBulkDelete(std::vector<EmptyLeaf> empties, ReorgMode reorg,
                          BtreeBulkDeleteStats* stats);
  /// BulkDeleteRange body; runs with `deferred_frees_` installed.
  Status BulkDeleteRangeLocked(
      int64_t lo, int64_t hi, ReorgMode reorg, std::vector<Rid>* deleted_rids,
      BtreeBulkDeleteStats* stats,
      const std::function<Status(PageId, const std::vector<KeyRid>&)>&
          on_leaf_drop,
      const std::function<void(int64_t, const Rid&)>& on_delete);

  // Reorganization routines (defined in reorg.cc).
  Status CompactAndRebuild();
  Status IncrementalBaseNodeReorg();
  /// Rebuilds all inner levels from the current (non-empty) leaf chain.
  Status RebuildInnerLevels();
  /// Builds inner levels over `children` (pairs of max-composite and page),
  /// freeing nothing; sets root_/height_/num_inner_.
  Status BuildUpperLevels(std::vector<std::pair<KeyRid, PageId>> children,
                          double fill);
  /// Frees every inner node (keeps leaves).
  Status FreeInnerLevels();

  BufferPool* pool_;
  PageId meta_page_;
  IndexOptions options_;
  /// When non-null, FreeNode defers: it pushes the page here instead of
  /// returning it to the allocator. Scoped to BulkDeleteRange (see its doc).
  std::vector<PageId>* deferred_frees_ = nullptr;
  PageId root_ = kInvalidPageId;
  // Relaxed atomics: read by the planner while updaters insert/delete.
  RelaxedAtomic<int> height_ = 1;
  RelaxedAtomic<uint64_t> entry_count_ = 0;
  RelaxedAtomic<uint32_t> num_leaves_ = 0;
  RelaxedAtomic<uint32_t> num_inner_ = 0;
};

}  // namespace bulkdel

#endif  // BULKDEL_BTREE_BTREE_H_
