#include "btree/btree.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_set>

namespace bulkdel {

namespace {
constexpr uint32_t kMagicOff = 0;
constexpr uint32_t kRootOff = 4;
constexpr uint32_t kHeightOff = 8;
constexpr uint32_t kCountOff = 12;
constexpr uint32_t kLeavesOff = 20;
constexpr uint32_t kInnerOff = 24;
constexpr uint32_t kBtreeMagic = 0x42545231;  // "BTR1"

constexpr int64_t kMinKey = std::numeric_limits<int64_t>::min();
/// Upper bound of the rightmost subtree: above every entry.
const KeyRid kTopBound = KeyRid::Max(std::numeric_limits<int64_t>::max());
}  // namespace

uint16_t BTree::leaf_capacity() const {
  uint16_t cap = BTreeNode::LeafPageCapacity();
  if (options_.max_leaf_entries > 0 && options_.max_leaf_entries < cap) {
    cap = options_.max_leaf_entries;
  }
  return cap;
}

uint16_t BTree::inner_capacity() const {
  uint16_t cap = BTreeNode::InnerPageCapacity();
  if (options_.max_inner_entries > 0 && options_.max_inner_entries < cap) {
    cap = options_.max_inner_entries;
  }
  return cap;
}

Result<BTree> BTree::Create(BufferPool* pool, IndexOptions options) {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard meta, pool->NewPage());
  BTree tree(pool, meta.page_id(), options);
  BULKDEL_ASSIGN_OR_RETURN(PageId root, tree.NewNode(0));
  tree.root_ = root;
  tree.height_ = 1;
  StoreU32(meta.data() + kMagicOff, kBtreeMagic);
  meta.MarkDirty();
  meta.Release();
  BULKDEL_RETURN_IF_ERROR(tree.FlushMeta());
  return tree;
}

Result<BTree> BTree::Open(BufferPool* pool, PageId meta_page,
                          IndexOptions options) {
  BTree tree(pool, meta_page, options);
  BULKDEL_RETURN_IF_ERROR(tree.LoadMeta());
  return tree;
}

Status BTree::LoadMeta() {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard meta, pool_->FetchPage(meta_page_));
  if (LoadU32(meta.data() + kMagicOff) != kBtreeMagic) {
    return Status::Corruption("bad btree meta magic on page " +
                              std::to_string(meta_page_));
  }
  root_ = LoadU32(meta.data() + kRootOff);
  height_ = static_cast<int>(LoadU32(meta.data() + kHeightOff));
  entry_count_ = LoadU64(meta.data() + kCountOff);
  num_leaves_ = LoadU32(meta.data() + kLeavesOff);
  num_inner_ = LoadU32(meta.data() + kInnerOff);
  return Status::OK();
}

Status BTree::FlushMeta() {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard meta, pool_->FetchPage(meta_page_));
  StoreU32(meta.data() + kMagicOff, kBtreeMagic);
  StoreU32(meta.data() + kRootOff, root_);
  StoreU32(meta.data() + kHeightOff, static_cast<uint32_t>(height_));
  StoreU64(meta.data() + kCountOff, entry_count_);
  StoreU32(meta.data() + kLeavesOff, num_leaves_);
  StoreU32(meta.data() + kInnerOff, num_inner_);
  meta.MarkDirty();
  return Status::OK();
}

Result<PageId> BTree::NewNode(uint8_t level) {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->NewPage());
  BTreeNode node(page.data());
  node.Init(level);
  page.MarkDirty();
  if (level == 0) {
    ++num_leaves_;
  } else {
    ++num_inner_;
  }
  return page.page_id();
}

Status BTree::FreeNode(PageId page) {
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page));
    BTreeNode node(guard.data());
    if (node.is_leaf()) {
      --num_leaves_;
    } else {
      --num_inner_;
    }
  }
  return pool_->DeletePage(page);
}

namespace {
/// Checks an inner node read on the way down from the root: `level` is the
/// level it must have (< 0: any). A corrupt node (read after a crash, say)
/// must surface as an error: its separators would be read past the page,
/// and a level that does not drop by one per step could descend forever.
Status CheckInner(PageId page, BTreeNode node, int level) {
  if (level >= 0 && node.level() != level) {
    return Status::Corruption("node " + std::to_string(page) + " at level " +
                              std::to_string(node.level()) + ", expected " +
                              std::to_string(level));
  }
  if (!node.is_leaf() && node.count() > BTreeNode::InnerPageCapacity()) {
    return Status::Corruption("inner node " + std::to_string(page) +
                              " holds " + std::to_string(node.count()) +
                              " separators, more than a page can");
  }
  return Status::OK();
}
}  // namespace

Result<PageId> BTree::DescendToLevel(const KeyRid& probe, int level) {
  PageId cur = root_;
  int expect = -1;  // the level the next node must have; the root's is free
  while (true) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
    BTreeNode node(guard.data());
    BULKDEL_RETURN_IF_ERROR(CheckInner(cur, node, expect));
    if (node.level() == level) return cur;
    if (node.level() < level) {
      return Status::Corruption("descent passed level " +
                                std::to_string(level) + " at node " +
                                std::to_string(cur));
    }
    expect = node.level() - 1;
    cur = node.Child(node.ChildIndexFor(probe));
  }
}

template <typename Visit>
Status BTree::WalkChain(PageId first, Visit&& visit) {
  for (PageId cur = first; cur != kInvalidPageId;) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
    BTreeNode node(guard.data());
    BULKDEL_ASSIGN_OR_RETURN(bool more, visit(guard, node));
    if (!more) break;
    cur = node.right_sibling();
  }
  return Status::OK();
}

template <typename Visit>
Status BTree::WalkLeaves(const KeyRid& start, Visit&& visit) {
  BULKDEL_ASSIGN_OR_RETURN(PageId first, DescendToLevel(start));
  return WalkChain(first, std::forward<Visit>(visit));
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

Status BTree::Insert(int64_t key, const Rid& rid, uint16_t flags) {
  bool added = true;
  BULKDEL_ASSIGN_OR_RETURN(std::optional<Split> split,
                           InsertRec(root_, key, rid, flags, &added));
  if (split.has_value()) {
    // Grow the tree: new root above the old one.
    uint8_t old_level;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard old_root, pool_->FetchPage(root_));
      old_level = BTreeNode(old_root.data()).level();
    }
    BULKDEL_ASSIGN_OR_RETURN(PageId new_root,
                             NewNode(static_cast<uint8_t>(old_level + 1)));
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(new_root));
    BTreeNode node(guard.data());
    node.SetChild(0, root_);
    node.InnerInsertAt(0, split->sep, split->right);
    guard.MarkDirty();
    root_ = new_root;
    ++height_;
  }
  if (added) ++entry_count_;
  return Status::OK();
}

Result<std::optional<BTree::Split>> BTree::InsertRec(PageId node_page,
                                                     int64_t key,
                                                     const Rid& rid,
                                                     uint16_t flags,
                                                     bool* added) {
  KeyRid probe(key, rid);
  BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(node_page));
  BTreeNode node(guard.data());

  if (node.is_leaf()) {
    // Reject duplicates: exact composite always, same key if unique.
    uint16_t pos = node.LeafLowerBound(probe);
    if (pos < node.count() && node.LeafEntryAt(pos) == probe) {
      if (flags & BTreeNode::kEntryUndeletable) {
        node.SetLeafFlags(pos,
                          static_cast<uint16_t>(node.LeafFlags(pos) | flags));
        guard.MarkDirty();
        *added = false;
        return std::optional<Split>();
      }
      return Status::AlreadyExists("entry (" + std::to_string(key) + ", " +
                                   rid.ToString() + ") already indexed");
    }
    if (options_.unique) {
      uint16_t kpos = node.LeafLowerBound(key);
      if (kpos < node.count() && node.LeafKey(kpos) == key) {
        return Status::AlreadyExists("unique key " + std::to_string(key) +
                                     " already indexed");
      }
      // The equal key could sit at the tail of the left sibling; the composite
      // descent lands here only if (key, rid) > that entry, i.e. same key.
      if (kpos == 0 && node.left_sibling() != kInvalidPageId) {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard left,
                                 pool_->FetchPage(node.left_sibling()));
        BTreeNode lnode(left.data());
        if (lnode.count() > 0 && lnode.LeafKey(lnode.count() - 1) == key) {
          return Status::AlreadyExists("unique key " + std::to_string(key) +
                                       " already indexed");
        }
      }
      // ... or at the head of the right sibling (stale separators after
      // deletes can route an equal-key probe one leaf to the left).
      if (kpos == node.count() && node.right_sibling() != kInvalidPageId) {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard right,
                                 pool_->FetchPage(node.right_sibling()));
        BTreeNode rnode(right.data());
        if (rnode.count() > 0 && rnode.LeafKey(0) == key) {
          return Status::AlreadyExists("unique key " + std::to_string(key) +
                                       " already indexed");
        }
      }
    }
    if (node.count() < leaf_capacity()) {
      node.LeafInsertAt(node.LeafLowerBound(probe), key, rid, flags);
      guard.MarkDirty();
      return std::optional<Split>();
    }
    Split split;
    BULKDEL_RETURN_IF_ERROR(SplitLeaf(guard, &split));
    // `guard` still pins the left node; pick the side for the new entry.
    if (probe <= split.sep) {
      node.LeafInsertAt(node.LeafLowerBound(probe), key, rid, flags);
      guard.MarkDirty();
    } else {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard right, pool_->FetchPage(split.right));
      BTreeNode rnode(right.data());
      rnode.LeafInsertAt(rnode.LeafLowerBound(probe), key, rid, flags);
      right.MarkDirty();
    }
    return std::optional<Split>(split);
  }

  uint16_t child_idx = node.ChildIndexFor(probe);
  PageId child = node.Child(child_idx);
  guard.Release();  // keep pin depth bounded during recursion

  BULKDEL_ASSIGN_OR_RETURN(std::optional<Split> child_split,
                           InsertRec(child, key, rid, flags, added));
  if (!child_split.has_value()) return std::optional<Split>();

  BULKDEL_ASSIGN_OR_RETURN(PageGuard reguard, pool_->FetchPage(node_page));
  BTreeNode renode(reguard.data());
  if (renode.count() < inner_capacity()) {
    renode.InnerInsertAt(child_idx, child_split->sep, child_split->right);
    reguard.MarkDirty();
    return std::optional<Split>();
  }
  Split split;
  BULKDEL_RETURN_IF_ERROR(SplitInner(reguard, &split));
  if (child_split->sep <= split.sep) {
    renode.InnerInsertAt(renode.ChildIndexFor(child_split->sep),
                         child_split->sep, child_split->right);
    reguard.MarkDirty();
  } else {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard right, pool_->FetchPage(split.right));
    BTreeNode rnode(right.data());
    rnode.InnerInsertAt(rnode.ChildIndexFor(child_split->sep),
                        child_split->sep, child_split->right);
    right.MarkDirty();
  }
  return std::optional<Split>(split);
}

Status BTree::SplitLeaf(PageGuard& leaf_guard, Split* split) {
  BTreeNode node(leaf_guard.data());
  uint16_t n = node.count();
  uint16_t keep = n / 2;

  BULKDEL_ASSIGN_OR_RETURN(PageId right_page, NewNode(0));
  BULKDEL_ASSIGN_OR_RETURN(PageGuard right_guard, pool_->FetchPage(right_page));
  BTreeNode right(right_guard.data());
  for (uint16_t i = keep; i < n; ++i) {
    right.SetLeafEntry(i - keep, node.LeafKey(i), node.LeafRid(i),
                       node.LeafFlags(i));
  }
  right.set_count(n - keep);
  node.set_count(keep);

  // Chain: left <-> right <-> old-right.
  PageId old_right = node.right_sibling();
  right.set_right_sibling(old_right);
  right.set_left_sibling(leaf_guard.page_id());
  node.set_right_sibling(right_page);
  if (old_right != kInvalidPageId) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard orguard, pool_->FetchPage(old_right));
    BTreeNode ornode(orguard.data());
    ornode.set_left_sibling(right_page);
    orguard.MarkDirty();
  }
  leaf_guard.MarkDirty();
  right_guard.MarkDirty();
  split->sep = node.LeafEntryAt(keep - 1);
  split->right = right_page;
  return Status::OK();
}

Status BTree::SplitInner(PageGuard& inner_guard, Split* split) {
  BTreeNode node(inner_guard.data());
  uint16_t n = node.count();
  uint16_t mid = n / 2;  // separator `mid` is promoted

  BULKDEL_ASSIGN_OR_RETURN(PageId right_page, NewNode(node.level()));
  BULKDEL_ASSIGN_OR_RETURN(PageGuard right_guard, pool_->FetchPage(right_page));
  BTreeNode right(right_guard.data());
  right.Init(node.level());
  right.SetChild(0, node.Child(mid + 1));
  for (uint16_t i = mid + 1; i < n; ++i) {
    right.InnerInsertAt(i - mid - 1, node.InnerSep(i), node.Child(i + 1));
  }
  KeyRid promoted = node.InnerSep(mid);
  node.set_count(mid);

  PageId old_right = node.right_sibling();
  right.set_right_sibling(old_right);
  right.set_left_sibling(inner_guard.page_id());
  node.set_right_sibling(right_page);
  if (old_right != kInvalidPageId) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard orguard, pool_->FetchPage(old_right));
    BTreeNode ornode(orguard.data());
    ornode.set_left_sibling(right_page);
    orguard.MarkDirty();
  }
  inner_guard.MarkDirty();
  right_guard.MarkDirty();
  split->sep = promoted;
  split->right = right_page;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Traditional (record-at-a-time) delete
// ---------------------------------------------------------------------------

Status BTree::Delete(int64_t key, const Rid& rid) {
  KeyRid probe(key, rid);
  BULKDEL_ASSIGN_OR_RETURN(PageId leaf, DescendToLevel(probe));
  bool empty = false;
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(leaf));
    BTreeNode node(guard.data());
    uint16_t pos = node.LeafLowerBound(probe);
    if (pos >= node.count() || !(node.LeafEntryAt(pos) == probe)) {
      return Status::NotFound("entry (" + std::to_string(key) + ", " +
                              rid.ToString() + ") not indexed");
    }
    node.LeafRemoveAt(pos);
    guard.MarkDirty();
    empty = node.count() == 0;
  }
  --entry_count_;
  if (empty && height_ > 1) {
    BULKDEL_RETURN_IF_ERROR(UnlinkFromChain(leaf));
    BULKDEL_RETURN_IF_ERROR(FreeNode(leaf));
    BULKDEL_RETURN_IF_ERROR(RemoveChildAtLevel(1, leaf, probe));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Lookups and scans
// ---------------------------------------------------------------------------

Result<std::vector<Rid>> BTree::Search(int64_t key) {
  std::vector<Rid> rids;
  BULKDEL_RETURN_IF_ERROR(RangeScan(key, key, [&](int64_t, const Rid& rid) {
    rids.push_back(rid);
    return Status::OK();
  }));
  return rids;
}

Status BTree::RangeScan(
    int64_t lo, int64_t hi,
    const std::function<Status(int64_t, const Rid&)>& visitor) {
  return WalkLeaves(
      KeyRid::Min(lo), [&](PageGuard&, BTreeNode node) -> Result<bool> {
        for (uint16_t pos = node.LeafLowerBound(lo); pos < node.count();
             ++pos) {
          int64_t k = node.LeafKey(pos);
          if (k > hi) return false;
          BULKDEL_RETURN_IF_ERROR(visitor(k, node.LeafRid(pos)));
        }
        return true;
      });
}

Status BTree::ScanAll(
    const std::function<Status(int64_t, const Rid&, uint16_t)>& visitor) {
  return WalkLeaves(
      KeyRid::Min(kMinKey), [&](PageGuard&, BTreeNode node) -> Result<bool> {
        for (uint16_t pos = 0; pos < node.count(); ++pos) {
          BULKDEL_RETURN_IF_ERROR(visitor(node.LeafKey(pos), node.LeafRid(pos),
                                          node.LeafFlags(pos)));
        }
        return true;
      });
}

Result<std::vector<PageId>> BTree::LeafChain() {
  std::vector<PageId> chain;
  BULKDEL_RETURN_IF_ERROR(WalkLeaves(
      KeyRid::Min(kMinKey), [&](PageGuard& guard, BTreeNode) -> Result<bool> {
        chain.push_back(guard.page_id());
        return true;
      }));
  return chain;
}

// ---------------------------------------------------------------------------
// Free-at-empty plumbing
// ---------------------------------------------------------------------------

Status BTree::UnlinkFromChain(PageId node_page) {
  PageId left, right;
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(node_page));
    BTreeNode node(guard.data());
    left = node.left_sibling();
    right = node.right_sibling();
  }
  if (left != kInvalidPageId) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(left));
    BTreeNode node(guard.data());
    node.set_right_sibling(right);
    guard.MarkDirty();
  }
  if (right != kInvalidPageId) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(right));
    BTreeNode node(guard.data());
    node.set_left_sibling(left);
    guard.MarkDirty();
  }
  return Status::OK();
}

Status BTree::RemoveChildAtLevel(uint8_t parent_level, PageId child,
                                 const KeyRid& probe) {
  // Descend to the parent level by the child's (pre-deletion) smallest entry.
  BULKDEL_ASSIGN_OR_RETURN(PageId cur, DescendToLevel(probe, parent_level));
  // Locate the owner node; walk the level chain right as a safety net.
  int idx = -1;
  BULKDEL_RETURN_IF_ERROR(
      WalkChain(cur, [&](PageGuard& guard, BTreeNode node) -> Result<bool> {
        cur = guard.page_id();
        idx = node.FindChild(child);
        return idx < 0;
      }));
  if (idx < 0) {
    return Status::Corruption("parent of freed node " + std::to_string(child) +
                              " not found at level " +
                              std::to_string(parent_level));
  }

  BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
  BTreeNode node(guard.data());
  if (node.count() == 0) {
    // The node's only child is being removed: the node itself dies too.
    guard.Release();
    if (cur == root_) {
      // The entire tree is empty now: reinitialize as a single empty leaf.
      BULKDEL_RETURN_IF_ERROR(FreeNode(cur));
      BULKDEL_ASSIGN_OR_RETURN(PageId leaf, NewNode(0));
      root_ = leaf;
      height_ = 1;
      return Status::OK();
    }
    BULKDEL_RETURN_IF_ERROR(UnlinkFromChain(cur));
    BULKDEL_RETURN_IF_ERROR(FreeNode(cur));
    return RemoveChildAtLevel(static_cast<uint8_t>(parent_level + 1), cur,
                              probe);
  }
  if (idx == 0) {
    node.InnerRemoveChild0();
  } else {
    node.InnerRemoveAt(static_cast<uint16_t>(idx - 1));
  }
  guard.MarkDirty();
  guard.Release();
  if (cur == root_) return MaybeCollapseRoot();
  return Status::OK();
}

Status BTree::MaybeCollapseRoot() {
  while (height_ > 1) {
    PageId only_child;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(root_));
      BTreeNode node(guard.data());
      if (node.is_leaf() || node.count() > 0) return Status::OK();
      only_child = node.Child(0);
    }
    PageId old_root = root_;
    root_ = only_child;
    --height_;
    BULKDEL_RETURN_IF_ERROR(FreeNode(old_root));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Bulk load
// ---------------------------------------------------------------------------

namespace {
/// Frees a whole subtree below `page` (page included). Local helper for
/// BulkLoad/Drop; reads the child list before freeing to bound pin depth.
Status FreeSubtree(BufferPool* pool, PageId page, uint32_t* leaves,
                   uint32_t* inners) {
  std::vector<PageId> children;
  bool leaf;
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool->FetchPage(page));
    BTreeNode node(guard.data());
    leaf = node.is_leaf();
    if (!leaf) {
      for (uint16_t i = 0; i <= node.count(); ++i) {
        children.push_back(node.Child(i));
      }
    }
  }
  for (PageId child : children) {
    BULKDEL_RETURN_IF_ERROR(FreeSubtree(pool, child, leaves, inners));
  }
  BULKDEL_RETURN_IF_ERROR(pool->DeletePage(page));
  if (leaf) {
    ++*leaves;
  } else {
    ++*inners;
  }
  return Status::OK();
}
}  // namespace

Status BTree::BulkLoad(const std::vector<KeyRid>& entries, double fill) {
  if (fill <= 0.0 || fill > 1.0) {
    return Status::InvalidArgument("fill factor must be in (0, 1]");
  }
  // Free the current contents.
  uint32_t freed_leaves = 0, freed_inner = 0;
  BULKDEL_RETURN_IF_ERROR(
      FreeSubtree(pool_, root_, &freed_leaves, &freed_inner));
  num_leaves_ -= freed_leaves;
  num_inner_ -= freed_inner;
  entry_count_ = 0;

  if (entries.empty()) {
    BULKDEL_ASSIGN_OR_RETURN(PageId leaf, NewNode(0));
    root_ = leaf;
    height_ = 1;
    return FlushMeta();
  }

  uint16_t per_leaf = std::max<uint16_t>(
      1, static_cast<uint16_t>(static_cast<double>(leaf_capacity()) * fill));
  std::vector<std::pair<KeyRid, PageId>> level;  // (max composite, page)
  PageId prev = kInvalidPageId;
  size_t i = 0;
  while (i < entries.size()) {
    size_t take = std::min<size_t>(per_leaf, entries.size() - i);
    // Avoid a pathologically small final leaf: split the tail evenly.
    if (entries.size() - i - take > 0 && entries.size() - i - take < per_leaf / 2) {
      take = (entries.size() - i + 1) / 2;
    }
    BULKDEL_ASSIGN_OR_RETURN(PageId page, NewNode(0));
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page));
    BTreeNode node(guard.data());
    for (size_t j = 0; j < take; ++j) {
      const KeyRid& e = entries[i + j];
      node.SetLeafEntry(static_cast<uint16_t>(j), e.key, e.rid, 0);
    }
    node.set_count(static_cast<uint16_t>(take));
    node.set_left_sibling(prev);
    guard.MarkDirty();
    if (prev != kInvalidPageId) {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard pguard, pool_->FetchPage(prev));
      BTreeNode pnode(pguard.data());
      pnode.set_right_sibling(page);
      pguard.MarkDirty();
    }
    level.emplace_back(entries[i + take - 1], page);
    prev = page;
    i += take;
  }
  entry_count_ = entries.size();
  BULKDEL_RETURN_IF_ERROR(BuildUpperLevels(std::move(level), fill));
  return FlushMeta();
}

Status BTree::BuildUpperLevels(std::vector<std::pair<KeyRid, PageId>> children,
                               double fill, std::vector<PageId>* built) {
  uint8_t level_no = 1;
  while (children.size() > 1) {
    size_t per_node =
        std::max<size_t>(2, static_cast<size_t>(
                                static_cast<double>(inner_capacity()) * fill) +
                                1);  // children per inner node
    std::vector<std::pair<KeyRid, PageId>> next;
    PageId prev = kInvalidPageId;
    size_t i = 0;
    while (i < children.size()) {
      size_t remaining = children.size() - i;
      size_t take;
      if (remaining <= per_node) {
        take = remaining;
      } else if (remaining == per_node + 1) {
        // Balance the tail so no group ends up with a single child.
        take = remaining / 2;
      } else {
        take = per_node;
      }
      BULKDEL_ASSIGN_OR_RETURN(PageId page, NewNode(level_no));
      if (built != nullptr) built->push_back(page);
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page));
      BTreeNode node(guard.data());
      node.SetChild(0, children[i].second);
      for (size_t j = 1; j < take; ++j) {
        node.InnerInsertAt(static_cast<uint16_t>(j - 1),
                           children[i + j - 1].first,
                           children[i + j].second);
      }
      node.set_left_sibling(prev);
      guard.MarkDirty();
      if (prev != kInvalidPageId) {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard pguard, pool_->FetchPage(prev));
        BTreeNode pnode(pguard.data());
        pnode.set_right_sibling(page);
        pguard.MarkDirty();
      }
      next.emplace_back(children[i + take - 1].first, page);
      prev = page;
      i += take;
    }
    children = std::move(next);
    ++level_no;
  }
  root_ = children[0].second;
  height_ = level_no;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Bulk delete primitives
// ---------------------------------------------------------------------------

namespace {
using Verdict = BTreeNode::LeafVerdict;
}  // namespace

template <typename Leaf>
Status BTree::BulkLeafPass(const std::optional<KeyRid>& start,
                           ReorgMode reorg, BulkPass& pass,
                           BtreeBulkDeleteStats* stats, Leaf&& leaf) {
  if (start.has_value()) {
    BULKDEL_RETURN_IF_ERROR(WalkLeaves(
        *start, [&](PageGuard& guard, BTreeNode node) -> Result<bool> {
          ++pass.stats.leaves_visited;
          BULKDEL_RETURN_IF_ERROR(leaf(guard, node));
          return !pass.done;
        }));
  }
  BULKDEL_RETURN_IF_ERROR(FinishBulkDelete(pass, reorg));
  if (stats != nullptr) *stats = pass.stats;
  return Status::OK();
}

template <typename Match>
void BTree::CompactLeaf(BulkPass& pass, PageGuard& guard, BTreeNode node,
                        uint16_t from, Match&& match) {
  uint16_t removed = node.LeafCompact(from, [&](uint16_t pos) {
    Verdict verdict = match(pos);
    if (verdict == Verdict::kStop) pass.done = true;
    if (verdict != Verdict::kDrop) return verdict;
    if (node.LeafFlags(pos) & BTreeNode::kEntryUndeletable) {
      ++pass.stats.skipped_undeletable;
      return Verdict::kKeep;
    }
    Rid rid = node.LeafRid(pos);
    if (pass.deleted_rids != nullptr) pass.deleted_rids->push_back(rid);
    if (pass.on_delete != nullptr && *pass.on_delete) {
      (*pass.on_delete)(node.LeafKey(pos), rid);
    }
    return Verdict::kDrop;
  });
  pass.stats.entries_deleted += removed;
  if (removed > 0) guard.MarkDirty();
  if (node.count() == 0 && height_ > 1) {
    pass.empties.push_back(EmptyLeaf{guard.page_id(), node.left_sibling(),
                                     node.right_sibling()});
  }
}

Status BTree::BulkDeleteSortedKeys(
    const std::vector<int64_t>& keys, ReorgMode reorg,
    std::vector<Rid>* deleted_rids, BtreeBulkDeleteStats* stats,
    const std::function<void(int64_t, const Rid&)>& on_delete) {
  BulkPass pass(deleted_rids, &on_delete);
  std::optional<KeyRid> start;
  if (!keys.empty()) start = KeyRid::Min(keys.front());
  size_t i = 0;
  return BulkLeafPass(
      start, reorg, pass, stats, [&](PageGuard& guard, BTreeNode node) {
        // Merge the leaf with the sorted key list.
        CompactLeaf(pass, guard, node, 0, [&](uint16_t pos) {
          int64_t k = node.LeafKey(pos);
          while (i < keys.size() && keys[i] < k) ++i;
          if (i == keys.size()) return Verdict::kStop;
          return k < keys[i] ? Verdict::kKeep : Verdict::kDrop;
        });
        return Status::OK();
      });
}

Status BTree::BulkDeleteSortedEntries(const std::vector<KeyRid>& entries,
                                      ReorgMode reorg,
                                      BtreeBulkDeleteStats* stats) {
  BulkPass pass(nullptr, nullptr);
  std::optional<KeyRid> start;
  if (!entries.empty()) start = entries.front();
  size_t i = 0;
  return BulkLeafPass(
      start, reorg, pass, stats, [&](PageGuard& guard, BTreeNode node) {
        // Merge the leaf with the sorted entry list.
        CompactLeaf(pass, guard, node, 0, [&](uint16_t pos) {
          KeyRid e = node.LeafEntryAt(pos);
          while (i < entries.size() && entries[i] < e) ++i;
          if (i == entries.size()) return Verdict::kStop;
          if (e < entries[i]) return Verdict::kKeep;
          // The list is used up: fetch no leaf to the right.
          if (++i == entries.size()) pass.done = true;
          return Verdict::kDrop;
        });
        return Status::OK();
      });
}

Status BTree::BulkDeleteByPredicate(
    const std::function<bool(int64_t, const Rid&)>& pred, ReorgMode reorg,
    BtreeBulkDeleteStats* stats, std::optional<int64_t> lo,
    std::optional<int64_t> hi,
    const std::function<void(int64_t, const Rid&)>& on_delete) {
  BulkPass pass(nullptr, &on_delete);
  return BulkLeafPass(
      KeyRid::Min(lo.value_or(kMinKey)), reorg, pass, stats,
      [&](PageGuard& guard, BTreeNode node) {
        CompactLeaf(pass, guard, node, 0, [&](uint16_t pos) {
          int64_t k = node.LeafKey(pos);
          if (hi.has_value() && k > *hi) return Verdict::kStop;
          if ((lo.has_value() && k < *lo) || !pred(k, node.LeafRid(pos))) {
            return Verdict::kKeep;
          }
          return Verdict::kDrop;
        });
        return Status::OK();
      });
}

Status BTree::BulkDeleteRange(
    int64_t lo, int64_t hi, ReorgMode reorg, std::vector<Rid>* deleted_rids,
    BtreeBulkDeleteStats* stats,
    const std::function<Status(PageId, const std::vector<KeyRid>&)>&
        on_leaf_drop,
    const std::function<void(int64_t, const Rid&)>& on_delete) {
  BulkPass pass(deleted_rids, &on_delete);
  std::optional<KeyRid> start;
  if (lo <= hi) start = KeyRid::Min(lo);
  return BulkLeafPass(
      start, reorg, pass, stats,
      [&](PageGuard& guard, BTreeNode node) -> Status {
        uint16_t count = node.count();
        // Leaf-run fast path: every entry covered by [lo, hi] and none pinned
        // undeletable — the leaf dies whole: one drop record, no write, no
        // per-entry removal.
        bool run_leaf = count > 0 && height_ > 1 && node.LeafKey(0) >= lo &&
                        node.LeafKey(static_cast<uint16_t>(count - 1)) <= hi;
        for (uint16_t pos = 0; run_leaf && pos < count; ++pos) {
          run_leaf = !(node.LeafFlags(pos) & BTreeNode::kEntryUndeletable);
        }
        if (run_leaf) {
          std::vector<KeyRid> harvest;
          harvest.reserve(count);
          for (uint16_t pos = 0; pos < count; ++pos) {
            harvest.push_back(node.LeafEntryAt(pos));
          }
          if (on_leaf_drop) {
            BULKDEL_RETURN_IF_ERROR(on_leaf_drop(guard.page_id(), harvest));
          }
          if (deleted_rids != nullptr) {
            for (const KeyRid& e : harvest) deleted_rids->push_back(e.rid);
          }
          pass.empties.push_back(EmptyLeaf{guard.page_id(), node.left_sibling(),
                                           node.right_sibling()});
          pass.stats.entries_deleted += count;
          ++pass.stats.leaves_dropped;
          return Status::OK();
        }
        uint16_t from = count > 0 ? node.LeafLowerBound(lo) : 0;
        CompactLeaf(pass, guard, node, from, [&](uint16_t pos) {
          return node.LeafKey(pos) > hi ? Verdict::kStop : Verdict::kDrop;
        });
        return Status::OK();
      });
}

Status BTree::FinishBulkDelete(BulkPass& pass, ReorgMode reorg) {
  entry_count_ -= pass.stats.entries_deleted;
  pass.stats.leaves_freed = pass.empties.size();
  if (!pass.empties.empty()) {
    InnerLevels inner;
    BULKDEL_RETURN_IF_ERROR(ReadInnerLevels(&inner));
    std::unordered_set<PageId> empty;
    for (const EmptyLeaf& e : pass.empties) empty.insert(e.page);
    // An empty leaf's range passes to the survivor left of it, so a key that
    // routed to the leaf routes to that survivor, whose right pointer leads
    // on to the leaf until the splice is written: a crash in between leaves
    // the leaf where the pass's re-run walks into it and detaches it again.
    std::vector<std::pair<KeyRid, PageId>> survivors;
    for (const auto& [bound, leaf] : inner.leaves) {
      if (empty.count(leaf) == 0) {
        survivors.emplace_back(bound, leaf);
      } else if (!survivors.empty()) {
        survivors.back().first = bound;
      }
    }
    BULKDEL_RETURN_IF_ERROR(
        ReplaceInnerLevels(std::move(survivors), pass.empties, inner.pages));
  }
  if (reorg != ReorgMode::kFreeAtEmpty && height_ > 1) {
    BULKDEL_RETURN_IF_ERROR(CompactAndRebuild());
  }
  return FlushMeta();
}

Status BTree::ReadInnerLevels(InnerLevels* out) {
  return ReadInnerLevels(root_, height_ - 1, kTopBound, out);
}

Status BTree::ReadInnerLevels(PageId page, int level, const KeyRid& bound,
                              InnerLevels* out) {
  std::vector<std::pair<KeyRid, PageId>> children;  // (upper bound, child)
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page));
    BTreeNode node(guard.data());
    BULKDEL_RETURN_IF_ERROR(CheckInner(page, node, level));
    for (uint16_t i = 0; i <= node.count(); ++i) {
      children.emplace_back(i < node.count() ? node.InnerSep(i) : bound,
                            node.Child(i));
    }
  }
  out->pages.push_back(page);
  for (const auto& [child_bound, child] : children) {
    if (level == 1) {
      out->leaves.emplace_back(child_bound, child);
    } else {
      BULKDEL_RETURN_IF_ERROR(
          ReadInnerLevels(child, level - 1, child_bound, out));
    }
  }
  return Status::OK();
}

Status BTree::ReplaceInnerLevels(
    std::vector<std::pair<KeyRid, PageId>> survivors,
    const std::vector<EmptyLeaf>& empties,
    const std::vector<PageId>& old_inner) {
  // The writes go in an order under which every crash leaves a tree the
  // pass's re-run repairs: no old inner node changes, so until the meta page
  // names the new root the old one still routes to every leaf.
  //  1. Each run of adjacent empties is spliced out of the backward chain:
  //     the survivor right of it points left past it.
  //  2. The new inner levels go to fresh pages; they and step 1's survivors
  //     are written, then the meta page naming the new root.
  //  3. Only then does the survivor left of each run point right past it: a
  //     walk reaches the run through that survivor until its write lands.
  // Every pointer is a function of the survivors alone, so a re-run writes
  // the same ones.
  std::vector<PageId> first_writes;
  std::vector<std::pair<PageId, PageId>> right_links;  // (survivor, right)
  for (size_t i = 0; i < empties.size();) {
    size_t j = i;
    while (j + 1 < empties.size() && empties[j].right == empties[j + 1].page) {
      ++j;
    }
    PageId left = empties[i].left;
    PageId right = empties[j].right;
    if (right != kInvalidPageId) {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(right));
      BTreeNode(guard.data()).set_left_sibling(left);
      guard.MarkDirty();
      first_writes.push_back(right);
    }
    if (left != kInvalidPageId) right_links.emplace_back(left, right);
    i = j + 1;
  }
  num_leaves_ = static_cast<uint32_t>(survivors.size());
  num_inner_ = 0;
  if (survivors.empty()) {
    BULKDEL_ASSIGN_OR_RETURN(PageId leaf, NewNode(0));
    survivors.emplace_back(kTopBound, leaf);
    first_writes.push_back(leaf);
  }
  BULKDEL_RETURN_IF_ERROR(
      BuildUpperLevels(std::move(survivors), 1.0, &first_writes));
  BULKDEL_RETURN_IF_ERROR(pool_->FlushPages(first_writes));
  BULKDEL_RETURN_IF_ERROR(FlushMeta());
  BULKDEL_RETURN_IF_ERROR(pool_->FlushPages({meta_page_}));
  for (const auto& [page, right] : right_links) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page));
    BTreeNode(guard.data()).set_right_sibling(right);
    guard.MarkDirty();
  }
  detached_.insert(detached_.end(), old_inner.begin(), old_inner.end());
  for (const EmptyLeaf& e : empties) detached_.push_back(e.page);
  return Status::OK();
}

Status BTree::MergeLookupSortedKeys(
    const std::vector<int64_t>& keys,
    const std::function<Status(int64_t, const Rid&)>& visitor) {
  if (keys.empty()) return Status::OK();
  size_t i = 0;
  return WalkLeaves(
      KeyRid::Min(keys.front()),
      [&](PageGuard&, BTreeNode node) -> Result<bool> {
        uint16_t pos = 0;
        while (pos < node.count() && i < keys.size()) {
          int64_t k = node.LeafKey(pos);
          if (k < keys[i]) {
            pos = node.LeafLowerBound(keys[i]);
            continue;
          }
          if (k > keys[i]) {
            ++i;
            continue;
          }
          BULKDEL_RETURN_IF_ERROR(visitor(k, node.LeafRid(pos)));
          ++pos;
        }
        return i < keys.size();
      });
}

Result<uint64_t> BTree::CountMatchingSortedKeys(
    const std::vector<int64_t>& keys) {
  uint64_t count = 0;
  BULKDEL_RETURN_IF_ERROR(
      MergeLookupSortedKeys(keys, [&](int64_t, const Rid&) {
        ++count;
        return Status::OK();
      }));
  return count;
}

Status BTree::ClearUndeletableFlags() {
  return WalkLeaves(
      KeyRid::Min(kMinKey), [](PageGuard& guard, BTreeNode node) -> Result<bool> {
        bool modified = false;
        for (uint16_t i = 0; i < node.count(); ++i) {
          if (node.LeafFlags(i) & BTreeNode::kEntryUndeletable) {
            node.SetLeafFlags(
                i, node.LeafFlags(i) & ~BTreeNode::kEntryUndeletable);
            modified = true;
          }
        }
        if (modified) guard.MarkDirty();
        return true;
      });
}

Status BTree::RecountFromScan() {
  uint64_t entries = 0;
  uint32_t leaves = 0;
  uint32_t inners = 0;
  PageId level_head = root_;
  int levels = 0;
  while (level_head != kInvalidPageId) {
    PageId next_head = kInvalidPageId;
    bool leaf_level = false;
    BULKDEL_RETURN_IF_ERROR(WalkChain(
        level_head, [&](PageGuard& guard, BTreeNode node) -> Result<bool> {
          leaf_level = node.is_leaf();
          if (guard.page_id() == level_head && !leaf_level) {
            next_head = node.Child(0);
          }
          if (leaf_level) {
            ++leaves;
            entries += node.count();
          } else {
            ++inners;
          }
          return true;
        }));
    ++levels;
    if (leaf_level) break;
    level_head = next_head;
  }
  entry_count_ = entries;
  num_leaves_ = leaves;
  num_inner_ = inners;
  height_ = levels;
  return FlushMeta();
}

Status BTree::Drop() {
  uint32_t leaves = 0, inners = 0;
  BULKDEL_RETURN_IF_ERROR(FreeSubtree(pool_, root_, &leaves, &inners));
  num_leaves_ -= leaves;
  num_inner_ -= inners;
  BULKDEL_RETURN_IF_ERROR(pool_->DeletePage(meta_page_));
  root_ = kInvalidPageId;
  height_ = 0;
  entry_count_ = 0;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Invariant checking (test support)
// ---------------------------------------------------------------------------

namespace {
struct CheckContext {
  BufferPool* pool;
  const BTree* tree;
  std::vector<std::vector<PageId>> levels;  // per level, in left-to-right order
  uint64_t entries = 0;
  uint32_t leaves = 0;
  uint32_t inners = 0;
};

Status CheckNode(CheckContext* ctx, PageId page, int expected_level,
                 const KeyRid* lo, const KeyRid* hi) {
  // Copy the node out so recursion never holds more than one pin.
  char buf[kPageSize];
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, ctx->pool->FetchPage(page));
    std::memcpy(buf, guard.data(), kPageSize);
  }
  BTreeNode node(buf);
  if (node.level() != expected_level) {
    return Status::Corruption("node " + std::to_string(page) +
                              ": level mismatch");
  }
  if (static_cast<size_t>(expected_level) >= ctx->levels.size()) {
    return Status::Corruption("node deeper than tree height");
  }
  ctx->levels[expected_level].push_back(page);

  if (node.is_leaf()) {
    ++ctx->leaves;
    ctx->entries += node.count();
    for (uint16_t i = 0; i < node.count(); ++i) {
      KeyRid e = node.LeafEntryAt(i);
      if (i > 0 && !(node.LeafEntryAt(i - 1) < e)) {
        return Status::Corruption("leaf " + std::to_string(page) +
                                  ": entries not strictly sorted");
      }
      if (lo != nullptr && !(*lo < e)) {
        return Status::Corruption("leaf " + std::to_string(page) +
                                  ": entry below lower bound");
      }
      if (hi != nullptr && !(e <= *hi)) {
        return Status::Corruption("leaf " + std::to_string(page) +
                                  ": entry above upper bound");
      }
    }
    return Status::OK();
  }

  ++ctx->inners;
  uint16_t n = node.count();
  for (uint16_t i = 1; i < n; ++i) {
    if (!(node.InnerSep(i - 1) < node.InnerSep(i))) {
      return Status::Corruption("inner " + std::to_string(page) +
                                ": separators not strictly sorted");
    }
  }
  for (uint16_t i = 0; i <= n; ++i) {
    KeyRid lo_sep, hi_sep;
    const KeyRid* child_lo = lo;
    const KeyRid* child_hi = hi;
    if (i > 0) {
      lo_sep = node.InnerSep(i - 1);
      child_lo = &lo_sep;
    }
    if (i < n) {
      hi_sep = node.InnerSep(i);
      child_hi = &hi_sep;
    }
    BULKDEL_RETURN_IF_ERROR(
        CheckNode(ctx, node.Child(i), expected_level - 1, child_lo, child_hi));
  }
  return Status::OK();
}
}  // namespace

Status BTree::CheckInvariants() {
  if (root_ == kInvalidPageId) {
    return Status::Corruption("tree has no root");
  }
  CheckContext ctx;
  ctx.pool = pool_;
  ctx.tree = this;
  ctx.levels.resize(static_cast<size_t>(height_));
  BULKDEL_RETURN_IF_ERROR(
      CheckNode(&ctx, root_, height_ - 1, nullptr, nullptr));

  if (ctx.entries != entry_count_) {
    return Status::Corruption("entry count mismatch: meta says " +
                              std::to_string(entry_count_) + ", tree has " +
                              std::to_string(ctx.entries));
  }
  if (ctx.leaves != num_leaves_ || ctx.inners != num_inner_) {
    return Status::Corruption("node count bookkeeping mismatch");
  }
  // Sibling chains per level must match in-order traversal.
  for (const std::vector<PageId>& level : ctx.levels) {
    for (size_t i = 0; i < level.size(); ++i) {
      char buf[kPageSize];
      {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(level[i]));
        std::memcpy(buf, guard.data(), kPageSize);
      }
      BTreeNode node(buf);
      PageId want_left = i == 0 ? kInvalidPageId : level[i - 1];
      PageId want_right = i + 1 == level.size() ? kInvalidPageId : level[i + 1];
      if (node.left_sibling() != want_left ||
          node.right_sibling() != want_right) {
        return Status::Corruption("sibling chain broken at page " +
                                  std::to_string(level[i]));
      }
    }
  }
  // Empty leaves are only legal as the root of an empty tree.
  if (height_ > 1) {
    for (PageId leaf : ctx.levels[0]) {
      char buf[kPageSize];
      {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(leaf));
        std::memcpy(buf, guard.data(), kPageSize);
      }
      if (BTreeNode(buf).count() == 0) {
        return Status::Corruption("empty leaf " + std::to_string(leaf) +
                                  " survived free-at-empty");
      }
    }
  }
  return Status::OK();
}

}  // namespace bulkdel
