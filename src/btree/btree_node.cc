#include "btree/btree_node.h"

#include <cstring>

namespace bulkdel {

void BTreeNode::Init(uint8_t level) {
  std::memset(data_, 0, kPageSize);
  data_[0] = static_cast<char>(level);
  set_count(0);
  set_right_sibling(kInvalidPageId);
  set_left_sibling(kInvalidPageId);
}

void BTreeNode::SetLeafEntry(uint16_t i, int64_t key, const Rid& rid,
                             uint16_t flags) {
  char* e = LeafEntry(i);
  StoreI64(e, key);
  StoreU32(e + 8, rid.page);
  StoreU16(e + 12, rid.slot);
  StoreU16(e + 14, flags);
}

void BTreeNode::LeafInsertAt(uint16_t i, int64_t key, const Rid& rid,
                             uint16_t flags) {
  uint16_t n = count();
  if (i < n) {
    std::memmove(LeafEntry(i + 1), LeafEntry(i),
                 static_cast<size_t>(n - i) * kLeafEntrySize);
  }
  SetLeafEntry(i, key, rid, flags);
  set_count(n + 1);
}

void BTreeNode::LeafRemoveAt(uint16_t i) {
  uint16_t n = count();
  if (i + 1 < n) {
    std::memmove(LeafEntry(i), LeafEntry(i + 1),
                 static_cast<size_t>(n - i - 1) * kLeafEntrySize);
  }
  set_count(n - 1);
}

uint16_t BTreeNode::LeafLowerBound(int64_t key) const {
  uint16_t lo = 0, hi = count();
  while (lo < hi) {
    uint16_t mid = (lo + hi) / 2;
    if (LeafKey(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint16_t BTreeNode::LeafLowerBound(const KeyRid& probe) const {
  uint16_t lo = 0, hi = count();
  while (lo < hi) {
    uint16_t mid = (lo + hi) / 2;
    if (LeafEntryAt(mid) < probe) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

PageId BTreeNode::Child(uint16_t i) const {
  if (i == 0) return LoadU32(data_ + kHeaderSize);
  return LoadU32(InnerEntry(i - 1) + 16);
}

void BTreeNode::SetChild(uint16_t i, PageId p) {
  if (i == 0) {
    StoreU32(data_ + kHeaderSize, p);
  } else {
    StoreU32(InnerEntry(i - 1) + 16, p);
  }
}

void BTreeNode::SetInnerSep(uint16_t i, const KeyRid& sep) {
  char* e = InnerEntry(i);
  StoreI64(e, sep.key);
  StoreU32(e + 8, sep.rid.page);
  StoreU16(e + 12, sep.rid.slot);
  StoreU16(e + 14, 0);
}

void BTreeNode::InnerInsertAt(uint16_t i, const KeyRid& sep,
                              PageId right_child) {
  uint16_t n = count();
  if (i < n) {
    std::memmove(InnerEntry(i + 1), InnerEntry(i),
                 static_cast<size_t>(n - i) * kInnerEntrySize);
  }
  SetInnerSep(i, sep);
  StoreU32(InnerEntry(i) + 16, right_child);
  set_count(n + 1);
}

void BTreeNode::InnerRemoveAt(uint16_t i) {
  uint16_t n = count();
  if (i + 1 < n) {
    std::memmove(InnerEntry(i), InnerEntry(i + 1),
                 static_cast<size_t>(n - i - 1) * kInnerEntrySize);
  }
  set_count(n - 1);
}

void BTreeNode::InnerRemoveChild0() {
  uint16_t n = count();
  // child1 (stored in entry 0) becomes child0; entry 0 disappears.
  SetChild(0, Child(1));
  if (n > 1) {
    std::memmove(InnerEntry(0), InnerEntry(1),
                 static_cast<size_t>(n - 1) * kInnerEntrySize);
  }
  set_count(n - 1);
}

uint16_t BTreeNode::ChildIndexFor(const KeyRid& probe) const {
  // Child i covers (sep[i-1], sep[i]]: descend into the first child whose
  // upper separator is >= probe.
  uint16_t lo = 0, hi = count();
  while (lo < hi) {
    uint16_t mid = (lo + hi) / 2;
    if (InnerSep(mid) < probe) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int BTreeNode::FindChild(PageId child) const {
  uint16_t n = count();
  for (uint16_t i = 0; i <= n; ++i) {
    if (Child(i) == child) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace bulkdel
