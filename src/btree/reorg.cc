// B-link-tree reorganization during/after bulk deletion (paper §2.3).
//
// All three plans scan the leaf level left to right, so leaves can be
// compacted and merged with neighbors at very little extra cost. Entries
// shift left across the whole leaf level; then the inner levels are rebuilt
// layer by layer on fresh pages (the full B-link organization makes each
// layer a chain) by the same finish every bulk pass uses.

#include <cstring>
#include <limits>
#include <vector>

#include "btree/btree.h"

namespace bulkdel {

namespace {
constexpr int64_t kMinKey = std::numeric_limits<int64_t>::min();

struct LeafEntryBuf {
  int64_t key;
  Rid rid;
  uint16_t flags;
};

/// Reads all entries of a leaf into a local buffer (bounds pin time).
Status LoadLeafEntries(BufferPool* pool, PageId page,
                       std::vector<LeafEntryBuf>* out) {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool->FetchPage(page));
  BTreeNode node(guard.data());
  out->clear();
  out->reserve(node.count());
  for (uint16_t i = 0; i < node.count(); ++i) {
    out->push_back(LeafEntryBuf{node.LeafKey(i), node.LeafRid(i),
                                node.LeafFlags(i)});
  }
  return Status::OK();
}

/// Shifts the entries of the leaves `pages` (in chain order) maximally to
/// the left, `cap` per leaf, and sets every written leaf's count. Returns
/// the index of the last leaf that keeps entries; an exactly-full last leaf
/// followed by leftovers, or no entries at all, leaves the tail leaf empty,
/// and at least one leaf is kept.
Result<size_t> PackLeaves(BufferPool* pool, uint16_t cap,
                          const std::vector<PageId>& pages) {
  size_t write_i = 0;
  uint16_t write_idx = 0;
  std::vector<LeafEntryBuf> buf;
  for (PageId page : pages) {
    BULKDEL_RETURN_IF_ERROR(LoadLeafEntries(pool, page, &buf));
    for (const LeafEntryBuf& e : buf) {
      if (write_idx == cap) {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard wguard,
                                 pool->FetchPage(pages[write_i]));
        BTreeNode wnode(wguard.data());
        wnode.set_count(cap);
        wguard.MarkDirty();
        ++write_i;
        write_idx = 0;
      }
      BULKDEL_ASSIGN_OR_RETURN(PageGuard wguard,
                               pool->FetchPage(pages[write_i]));
      BTreeNode wnode(wguard.data());
      wnode.SetLeafEntry(write_idx, e.key, e.rid, e.flags);
      wguard.MarkDirty();
      ++write_idx;
    }
  }
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard wguard, pool->FetchPage(pages[write_i]));
    BTreeNode wnode(wguard.data());
    wnode.set_count(write_idx);
    wguard.MarkDirty();
  }
  if (write_idx == 0 && write_i > 0) --write_i;
  return write_i;
}
}  // namespace

Status BTree::CompactAndRebuild() {
  InnerLevels inner;
  BULKDEL_RETURN_IF_ERROR(ReadInnerLevels(&inner));
  std::vector<PageId> chain;
  for (const auto& leaf : inner.leaves) chain.push_back(leaf.second);
  BULKDEL_ASSIGN_OR_RETURN(size_t write_i,
                           PackLeaves(pool_, leaf_capacity(), chain));
  std::vector<std::pair<KeyRid, PageId>> kept;
  std::vector<EmptyLeaf> emptied;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (i > write_i) {
      emptied.push_back(EmptyLeaf{
          chain[i], chain[i - 1],
          i + 1 < chain.size() ? chain[i + 1] : kInvalidPageId});
      continue;
    }
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(chain[i]));
    BTreeNode node(guard.data());
    kept.emplace_back(node.count() > 0 ? node.LeafEntryAt(node.count() - 1)
                                       : KeyRid::Min(kMinKey),
                      chain[i]);
  }
  // Packing moved entries across leaves, so the old separators no longer
  // bound them: the rebuild runs even when no leaf emptied.
  return ReplaceInnerLevels(std::move(kept), emptied, inner.pages);
}

}  // namespace bulkdel
