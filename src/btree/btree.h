#ifndef BULKDEL_BTREE_BTREE_H_
#define BULKDEL_BTREE_BTREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
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
  /// leaves), detach the emptied tail, and rebuild all inner levels
  /// ("process each layer individually", §2.3).
  kCompactAndRebuild,
};

/// Counters reported by the bulk-delete primitives.
struct BtreeBulkDeleteStats {
  uint64_t entries_deleted = 0;
  uint64_t leaves_visited = 0;
  /// Leaves the pass emptied and detached (see TakeDetachedPages).
  uint64_t leaves_freed = 0;
  /// Leaves detached by the range leaf-run pass *without* per-entry removal
  /// (fully covered by [lo, hi]); also counted in leaves_freed.
  uint64_t leaves_dropped = 0;
  uint64_t skipped_undeletable = 0;

  BtreeBulkDeleteStats& operator+=(const BtreeBulkDeleteStats& other) {
    entries_deleted += other.entries_deleted;
    leaves_visited += other.leaves_visited;
    leaves_freed += other.leaves_freed;
    leaves_dropped += other.leaves_dropped;
    skipped_undeletable += other.skipped_undeletable;
    return *this;
  }
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
///    key/entry list, predicate probing (hash/partitioned plans) and key
///    ranges, with pluggable reorganization (§2.3). All four are one pass,
///    BulkLeafPass: each entry point supplies only its per-entry verdict
///    (the range pass also its whole-leaf drop), and every leaf-chain walk
///    goes through WalkChain. A pass changes no inner node in place and
///    frees no page: when it empties a leaf, one finish (ReplaceInnerLevels)
///    rebuilds the inner levels on fresh pages and detaches the old ones.
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
  /// duplicated (key, rid) pair otherwise, except that an undeletable insert
  /// of a present (key, rid) marks that entry undeletable instead: it is the
  /// stale entry of a deleted row whose freed slot the new row reuses, and
  /// the pending bulk pass must keep it for the new row (§3.1.2).
  Status Insert(int64_t key, const Rid& rid, uint16_t flags = 0);

  /// Traditional root-to-leaf delete of the exact entry (key, rid).
  Status Delete(int64_t key, const Rid& rid);

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

  /// Sees each leaf a bulk pass changes, once, while the pass still pins
  /// it: the leaf's page, the (key, RID) entries the pass removed from it in
  /// key order, and whether the pass detached the leaf whole instead of
  /// compacting it. A record appended here precedes the leaf's unpin, so
  /// the pool's WAL rule makes it durable before the leaf's write-back (the
  /// recovery layer logs one record per leaf). An error aborts the pass; a
  /// leaf about to be detached is then left intact.
  using LeafDeleteFn = std::function<Status(
      PageId leaf, const std::vector<KeyRid>& removed, bool detached)>;

  /// Merge-based bulk delete: removes every entry whose key appears in
  /// `keys` (ascending, unique). Deleted RIDs are appended to `deleted_rids`
  /// (in key order) when non-null; `on_leaf` sees every changed leaf.
  /// This is the ⋉̸-by-key operator.
  Status BulkDeleteSortedKeys(const std::vector<int64_t>& keys,
                              ReorgMode reorg, std::vector<Rid>* deleted_rids,
                              BtreeBulkDeleteStats* stats = nullptr,
                              const LeafDeleteFn& on_leaf = nullptr);

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
      const LeafDeleteFn& on_leaf = nullptr);

  /// Range bulk delete with the leaf-run fast path: removes every entry with
  /// lo <= key <= hi. Leaves *fully* covered by the range (and free of
  /// kEntryUndeletable markers) are detached whole — their entries are never
  /// touched individually and the pages are never written: the pass charges
  /// one read per dropped leaf (to harvest its RIDs), and the finish splices
  /// each run of them out of the chain with writes to its two surviving
  /// neighbors; only the two boundary leaves see per-entry removal. Deleted
  /// RIDs are appended to `deleted_rids` in key order when non-null.
  /// `on_leaf` sees a dropped leaf before it is detached (`detached`, with
  /// its full entry list) and a boundary leaf after its compaction. An
  /// inverted range (lo > hi) deletes nothing.
  Status BulkDeleteRange(int64_t lo, int64_t hi, ReorgMode reorg,
                         std::vector<Rid>* deleted_rids,
                         BtreeBulkDeleteStats* stats = nullptr,
                         const LeafDeleteFn& on_leaf = nullptr);

  /// The pages the bulk passes detached since the last call: emptied leaves
  /// and replaced inner nodes. No bulk pass returns a page to the allocator;
  /// the pages stay allocated until the caller frees them, which the
  /// bulk-delete executor does once the statement's End record is durable.
  std::vector<PageId> TakeDetachedPages() {
    return std::exchange(detached_, {});
  }

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

  /// Root-to-`level` descent by composite probe; returns the node's page id.
  /// Every inner node on the way is checked (CheckInner).
  Result<PageId> DescendToLevel(const KeyRid& probe, int level = 0);

  /// Clears `*added` when it marks an existing entry instead of adding one.
  Result<std::optional<Split>> InsertRec(PageId node_page, int64_t key,
                                         const Rid& rid, uint16_t flags,
                                         bool* added);
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

  /// The one leaf-chain walk (it walks an inner level as well): fetches the
  /// chain from `first` left to right and calls `visit(guard, node)` ->
  /// Result<bool> with each page pinned, unpinning it before the next fetch;
  /// false stops the walk. WalkLeaves first descends to the leaf `start`
  /// routes to.
  template <typename Visit>
  Status WalkChain(PageId first, Visit&& visit);
  template <typename Visit>
  Status WalkLeaves(const KeyRid& start, Visit&& visit);

  /// A leaf a bulk pass emptied (or dropped whole) and its chain neighbors
  /// when the pass reached it.
  struct EmptyLeaf {
    PageId page;
    PageId left;
    PageId right;
  };
  /// State of one bulk pass.
  struct BulkPass {
    BulkPass(std::vector<Rid>* rids, const LeafDeleteFn* leaf_fn)
        : deleted_rids(rids),
          on_leaf(leaf_fn != nullptr && *leaf_fn ? leaf_fn : nullptr) {}
    std::vector<Rid>* deleted_rids;
    const LeafDeleteFn* on_leaf;  // null when the caller passed none
    /// The current leaf's removed entries, for on_leaf (reused per leaf).
    std::vector<KeyRid> removed;
    BtreeBulkDeleteStats stats;
    std::vector<EmptyLeaf> empties;  // in chain order
    /// Set by a kStop verdict, or by a merge whose input ran out: the walk
    /// fetches no further leaf.
    bool done = false;
  };
  /// The one bulk pass: walks the leaves from `start` (none when empty),
  /// handing each to `leaf(guard, node)` -> Status until the chain ends or
  /// `pass.done`, then FinishBulkDelete; fills `*stats` on success.
  template <typename Leaf>
  Status BulkLeafPass(const std::optional<KeyRid>& start, ReorgMode reorg,
                      BulkPass& pass, BtreeBulkDeleteStats* stats, Leaf&& leaf);
  /// The per-entry step of every bulk pass: one LeafCompact of the pinned
  /// leaf from entry `from` by the caller's verdict `match(pos)`. A kDrop of
  /// a kEntryUndeletable entry is kept (skipped_undeletable); each removed
  /// entry goes to deleted_rids. Marks the leaf dirty when it lost entries,
  /// hands them to on_leaf before the guard unpins it, and collects the leaf
  /// when it emptied.
  template <typename Match>
  Status CompactLeaf(BulkPass& pass, PageGuard& guard, BTreeNode node,
                     uint16_t from, Match&& match);
  /// Detaches the pass's empties, runs the reorganization and persists the
  /// meta page.
  Status FinishBulkDelete(BulkPass& pass, ReorgMode reorg);

  /// The inner levels as read from the inner pages alone: every leaf left to
  /// right with its upper bound (the separator right of it; a maximal
  /// sentinel for the last leaf), and every inner page.
  struct InnerLevels {
    std::vector<std::pair<KeyRid, PageId>> leaves;
    std::vector<PageId> pages;
  };
  Status ReadInnerLevels(InnerLevels* out);
  /// The subtree of `page` at `level`, all of whose entries are <= `bound`.
  Status ReadInnerLevels(PageId page, int level, const KeyRid& bound,
                         InnerLevels* out);
  /// The one finish of every bulk pass that emptied a leaf, and of the
  /// compacting reorganization: splices `empties` out of the leaf chain,
  /// builds the inner levels over `survivors` ((upper bound, leaf) pairs)
  /// on fresh pages, publishes them with the meta page, and detaches the
  /// `old_inner` pages and the empties. Changes no old inner node and frees
  /// no page.
  Status ReplaceInnerLevels(std::vector<std::pair<KeyRid, PageId>> survivors,
                            const std::vector<EmptyLeaf>& empties,
                            const std::vector<PageId>& old_inner);

  /// The compacting reorganization (reorg.cc): shifts the entries of the
  /// whole leaf level maximally left, then replaces the inner levels over
  /// the leaves that kept entries.
  Status CompactAndRebuild();
  /// Builds inner levels over `children` (pairs of upper bound and page),
  /// freeing nothing; sets root_/height_ and appends the new pages to
  /// `built` when non-null. The caller persists the meta page.
  Status BuildUpperLevels(std::vector<std::pair<KeyRid, PageId>> children,
                          double fill, std::vector<PageId>* built = nullptr);

  BufferPool* pool_;
  PageId meta_page_;
  IndexOptions options_;
  /// Pages detached by bulk passes, awaiting TakeDetachedPages.
  std::vector<PageId> detached_;
  PageId root_ = kInvalidPageId;
  // Relaxed atomics: read by the planner while updaters insert/delete.
  RelaxedAtomic<int> height_ = 1;
  RelaxedAtomic<uint64_t> entry_count_ = 0;
  RelaxedAtomic<uint32_t> num_leaves_ = 0;
  RelaxedAtomic<uint32_t> num_inner_ = 0;
};

}  // namespace bulkdel

#endif  // BULKDEL_BTREE_BTREE_H_
