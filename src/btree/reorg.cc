// B-link-tree reorganization during/after bulk deletion (paper §2.3).
//
// All three plans scan the leaf level left to right, so leaves can be
// compacted and merged with neighbors at very little extra cost, and the
// inner levels can be updated either layer-by-layer afterwards (the full
// B-link organization makes each layer a chain), or on the fly per
// "base node" subtree, adapting Zou & Salzberg's on-line reorganization [26].

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

Status BTree::FreeInnerLevels() {
  if (height_ <= 1) return Status::OK();
  PageId level_head = root_;
  while (true) {
    PageId next_head;
    bool is_leaf_level;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(level_head));
      BTreeNode node(guard.data());
      is_leaf_level = node.is_leaf();
      next_head = is_leaf_level ? kInvalidPageId : node.Child(0);
    }
    if (is_leaf_level) break;
    PageId cur = level_head;
    while (cur != kInvalidPageId) {
      PageId right;
      {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
        right = BTreeNode(guard.data()).right_sibling();
      }
      BULKDEL_RETURN_IF_ERROR(FreeNode(cur));
      cur = right;
    }
    level_head = next_head;
  }
  return Status::OK();
}

Status BTree::CompactAndRebuild() {
  BULKDEL_ASSIGN_OR_RETURN(PageId leftmost, DescendToLeaf(KeyRid::Min(kMinKey)));
  BULKDEL_RETURN_IF_ERROR(FreeInnerLevels());
  BULKDEL_ASSIGN_OR_RETURN(std::vector<PageId> pages, LeafChain(leftmost));

  // Shift all entries maximally to the left ("beyond base node delimiters").
  BULKDEL_ASSIGN_OR_RETURN(size_t write_i,
                           PackLeaves(pool_, leaf_capacity(), pages));

  // Terminate the chain at the last kept leaf and free the tail.
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard wguard,
                             pool_->FetchPage(pages[write_i]));
    BTreeNode wnode(wguard.data());
    wnode.set_right_sibling(kInvalidPageId);
    wguard.MarkDirty();
  }
  for (size_t i = write_i + 1; i < pages.size(); ++i) {
    BULKDEL_RETURN_IF_ERROR(FreeNode(pages[i]));
  }

  // Rebuild the inner levels over the kept leaves.
  std::vector<std::pair<KeyRid, PageId>> kept;
  kept.reserve(write_i + 1);
  for (size_t i = 0; i <= write_i; ++i) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(pages[i]));
    BTreeNode node(guard.data());
    KeyRid max_entry = node.count() > 0 ? node.LeafEntryAt(node.count() - 1)
                                        : KeyRid::Min(kMinKey);
    kept.emplace_back(max_entry, pages[i]);
  }
  return BuildUpperLevels(std::move(kept), 1.0);
}

Status BTree::IncrementalBaseNodeReorg() {
  if (height_ <= 1) return Status::OK();

  // The base nodes are the level-1 inner nodes; walk their sibling chain.
  PageId base = root_;
  for (int lvl = height_ - 1; lvl > 1; --lvl) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(base));
    base = BTreeNode(guard.data()).Child(0);
  }

  while (base != kInvalidPageId) {
    PageId next_base;
    std::vector<PageId> children;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(base));
      BTreeNode node(guard.data());
      next_base = node.right_sibling();
      for (uint16_t i = 0; i <= node.count(); ++i) {
        children.push_back(node.Child(i));
      }
    }

    // Compact this subtree's leaves in place (reorganization unit = the
    // base node's children, Fig. 6 of the paper).
    BULKDEL_ASSIGN_OR_RETURN(size_t write_i,
                             PackLeaves(pool_, leaf_capacity(), children));

    // Bridge the leaf chain over the freed tail and free it.
    if (write_i + 1 < children.size()) {
      PageId after;
      {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard guard,
                                 pool_->FetchPage(children.back()));
        after = BTreeNode(guard.data()).right_sibling();
      }
      {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard wguard,
                                 pool_->FetchPage(children[write_i]));
        BTreeNode wnode(wguard.data());
        wnode.set_right_sibling(after);
        wguard.MarkDirty();
      }
      if (after != kInvalidPageId) {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard aguard, pool_->FetchPage(after));
        BTreeNode anode(aguard.data());
        anode.set_left_sibling(children[write_i]);
        aguard.MarkDirty();
      }
      for (size_t i = write_i + 1; i < children.size(); ++i) {
        BULKDEL_RETURN_IF_ERROR(FreeNode(children[i]));
      }
    }

    // Rewrite the base node's child list and separators in place. The
    // subtree's key range only shrank, so ancestors stay valid.
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(base));
      BTreeNode node(guard.data());
      node.set_count(0);
      node.SetChild(0, children[0]);
      for (size_t i = 1; i <= write_i; ++i) {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard cguard,
                                 pool_->FetchPage(children[i - 1]));
        BTreeNode cnode(cguard.data());
        KeyRid sep = cnode.LeafEntryAt(cnode.count() - 1);
        cguard.Release();
        node.InnerInsertAt(static_cast<uint16_t>(i - 1), sep, children[i]);
      }
      guard.MarkDirty();
    }
    base = next_base;
  }
  return Status::OK();
}

}  // namespace bulkdel
