#ifndef BULKDEL_BTREE_BTREE_NODE_H_
#define BULKDEL_BTREE_BTREE_NODE_H_

#include <cstdint>
#include <cstring>

#include "storage/page.h"
#include "table/rid.h"
#include "util/coding.h"

namespace bulkdel {

/// Composite (key, RID) index entry. Entries in a leaf are ordered by
/// (key, RID), which supports duplicate keys and the paper's two primary
/// bulk-delete predicates: lookup by key (with RID as tie-breaker) and probe
/// by RID.
struct KeyRid {
  int64_t key = 0;
  Rid rid;

  KeyRid() = default;
  KeyRid(int64_t k, Rid r) : key(k), rid(r) {}

  /// Smallest / largest possible composite values; used as descent probes for
  /// key-only searches.
  static KeyRid Min(int64_t key) { return KeyRid(key, Rid(0, 0)); }
  static KeyRid Max(int64_t key) {
    return KeyRid(key, Rid(kInvalidPageId, 0xFFFF));
  }

  friend bool operator==(const KeyRid& a, const KeyRid& b) {
    return a.key == b.key && a.rid == b.rid;
  }
  friend bool operator<(const KeyRid& a, const KeyRid& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.rid < b.rid;
  }
  friend bool operator<=(const KeyRid& a, const KeyRid& b) {
    return !(b < a);
  }
};

/// View over one B-link-tree node page.
///
/// Every level is sibling-chained left-to-right (and back), following
/// Lehman/Yao's B-link organization [10] — the paper needs the chains to scan
/// the leaf level sequentially during bulk deletes and to rebuild or
/// reorganize inner levels layer by layer (§2.3).
///
/// Separators are composite (key, RID) pairs: child i of an inner node covers
/// composite values in (sep[i-1], sep[i]]. Composite separators keep the tree
/// exact in the presence of duplicate keys even when equal keys straddle a
/// split boundary.
///
/// Layout (offsets in bytes):
///   header (16): [u8 level][u8 flags][u16 count][u32 right][u32 left][u32 rsv]
///   leaf:  entries at 16, stride 16: [i64 key][u32 rid.page][u16 rid.slot]
///          [u16 entry_flags]
///   inner: child0 (u32) at 16, entries at 20, stride 20:
///          [i64 key][u32 rid.page][u16 rid.slot][u16 pad][u32 child]
class BTreeNode {
 public:
  static constexpr uint32_t kHeaderSize = 16;
  static constexpr uint32_t kLeafEntrySize = 16;
  static constexpr uint32_t kInnerEntrySize = 20;

  /// Leaf entry flag: entry was inserted by a concurrent updater while the
  /// index was off-line during a bulk delete; the bulk deleter must not
  /// remove it even if it matches the delete set (§3.1.2).
  static constexpr uint16_t kEntryUndeletable = 0x1;

  /// Max entries dictated by the page size alone.
  static constexpr uint16_t LeafPageCapacity() {
    return static_cast<uint16_t>((kPageSize - kHeaderSize) / kLeafEntrySize);
  }
  static constexpr uint16_t InnerPageCapacity() {
    return static_cast<uint16_t>((kPageSize - kHeaderSize - 4) /
                                 kInnerEntrySize);
  }

  explicit BTreeNode(char* data) : data_(data) {}

  // -- Header ---------------------------------------------------------------
  uint8_t level() const { return static_cast<uint8_t>(data_[0]); }
  bool is_leaf() const { return level() == 0; }
  uint16_t count() const { return LoadU16(data_ + 2); }
  void set_count(uint16_t c) { StoreU16(data_ + 2, c); }
  PageId right_sibling() const { return LoadU32(data_ + 4); }
  void set_right_sibling(PageId p) { StoreU32(data_ + 4, p); }
  PageId left_sibling() const { return LoadU32(data_ + 8); }
  void set_left_sibling(PageId p) { StoreU32(data_ + 8, p); }

  /// Formats the buffer as an empty node of `level` (0 = leaf).
  void Init(uint8_t level);

  // -- Leaf entries ---------------------------------------------------------
  int64_t LeafKey(uint16_t i) const { return LoadI64(LeafEntry(i)); }
  Rid LeafRid(uint16_t i) const {
    return Rid(LoadU32(LeafEntry(i) + 8), LoadU16(LeafEntry(i) + 12));
  }
  uint16_t LeafFlags(uint16_t i) const { return LoadU16(LeafEntry(i) + 14); }
  void SetLeafFlags(uint16_t i, uint16_t flags) {
    StoreU16(LeafEntry(i) + 14, flags);
  }
  KeyRid LeafEntryAt(uint16_t i) const {
    return KeyRid(LeafKey(i), LeafRid(i));
  }
  void SetLeafEntry(uint16_t i, int64_t key, const Rid& rid, uint16_t flags);

  /// Shifts entries [i, count) right and writes the new entry at i.
  void LeafInsertAt(uint16_t i, int64_t key, const Rid& rid, uint16_t flags);
  /// Removes entry i, shifting the tail left (the single-entry delete).
  void LeafRemoveAt(uint16_t i);

  /// What a leaf compaction does with the entry it visits.
  enum class LeafVerdict : uint8_t { kKeep, kDrop, kStop };

  /// One-pass leaf compaction for the bulk deletes: calls `visit(i)` for
  /// i = from, from + 1, ... with each entry's original index, and keeps or
  /// drops the entry, or stops the pass (keeping entry i and every entry
  /// after it). Each survivor is copied down at most once and the count is
  /// set at the end, so a leaf costs O(count) however many entries die.
  /// `visit` may read entries at index >= i only. Returns the number dropped.
  template <typename Visit>
  uint16_t LeafCompact(uint16_t from, Visit&& visit) {
    const uint16_t n = count();
    uint16_t out = from;
    uint16_t i = from;
    for (; i < n; ++i) {
      LeafVerdict verdict = visit(i);
      if (verdict == LeafVerdict::kStop) break;
      if (verdict == LeafVerdict::kDrop) continue;
      if (out != i) std::memcpy(LeafEntry(out), LeafEntry(i), kLeafEntrySize);
      ++out;
    }
    if (out != i && i < n) {
      std::memmove(LeafEntry(out), LeafEntry(i),
                   static_cast<size_t>(n - i) * kLeafEntrySize);
    }
    const uint16_t kept = static_cast<uint16_t>(out + (n - i));
    set_count(kept);
    return static_cast<uint16_t>(n - kept);
  }

  /// First index with key >= probe key; `count()` if none.
  uint16_t LeafLowerBound(int64_t key) const;
  /// First index with (key, rid) >= probe; `count()` if none.
  uint16_t LeafLowerBound(const KeyRid& probe) const;

  // -- Inner entries ----------------------------------------------------------
  PageId Child(uint16_t i) const;  // i in [0, count]
  void SetChild(uint16_t i, PageId p);
  KeyRid InnerSep(uint16_t i) const {  // i in [0, count)
    const char* e = InnerEntry(i);
    return KeyRid(LoadI64(e), Rid(LoadU32(e + 8), LoadU16(e + 12)));
  }
  void SetInnerSep(uint16_t i, const KeyRid& sep);

  /// Inserts separator `sep` at position i with `right_child` as child i+1.
  void InnerInsertAt(uint16_t i, const KeyRid& sep, PageId right_child);
  /// Removes child i+1 and separator i.
  void InnerRemoveAt(uint16_t i);
  /// Removes child 0; child 1 becomes the new child 0 and separator 0 is
  /// dropped.
  void InnerRemoveChild0();

  /// Child index to follow for composite probe: the first i with
  /// probe <= sep[i]; count() (the rightmost child) if none.
  uint16_t ChildIndexFor(const KeyRid& probe) const;

  /// Linear scan for `child`; returns its index or -1.
  int FindChild(PageId child) const;

 private:
  char* LeafEntry(uint16_t i) const {
    return data_ + kHeaderSize + static_cast<uint32_t>(i) * kLeafEntrySize;
  }
  char* InnerEntry(uint16_t i) const {
    return data_ + kHeaderSize + 4 +
           static_cast<uint32_t>(i) * kInnerEntrySize;
  }

  char* data_;
};

}  // namespace bulkdel

#endif  // BULKDEL_BTREE_BTREE_NODE_H_
