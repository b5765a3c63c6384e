#ifndef BULKDEL_EXEC_HASH_DELETE_H_
#define BULKDEL_EXEC_HASH_DELETE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "btree/btree.h"
#include "util/result.h"

namespace bulkdel {

/// Open-addressing hash set of 64-bit values with explicit size accounting.
///
/// The classic-hash bulk-delete plan (paper §2.2.2 / Fig. 4) builds a
/// main-memory hash table over the RID list; the plan is only applicable
/// when that table fits the memory budget, which `EstimateBytes` lets the
/// planner check. The by-RID index pass probes a `RidSet`, which never
/// takes more than these bytes; key lists are probed through this set.
class U64HashSet {
 public:
  /// Bytes a set sized for `n` items occupies (load factor 0.5, rounded up to
  /// a power of two).
  static size_t EstimateBytes(size_t n);

  explicit U64HashSet(size_t expected_items);

  void Insert(uint64_t v);
  bool Contains(uint64_t v) const;
  size_t size() const { return size_; }
  size_t bytes() const { return slots_.size() * sizeof(uint64_t); }

 private:
  static constexpr uint64_t kEmpty = ~0ULL;
  size_t Probe(uint64_t v) const;
  void Grow();

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
  uint64_t mask_ = 0;
  /// The all-ones value doubles as the empty-slot sentinel (it is, e.g.,
  /// key -1 cast to unsigned), so its membership is tracked out of band.
  bool has_sentinel_ = false;
};

/// Membership set over a doomed-RID list, probed once per leaf entry by the
/// by-RID ⋉̸.
///
/// Doomed RIDs cluster on a span of heap pages, so the set is normally a
/// bitmap over that span: bit `(page - min_page) << slot_bits | slot`, where
/// `slot_bits` covers the list's highest slot (about 13 KB for 10% of a
/// 100k-row table of 256-byte tuples, against 256 KB of hash set). A probe
/// is a shift and a load from a cache-resident array instead of a hash and
/// a random probe. When the bitmap would take more bytes than
/// `U64HashSet::EstimateBytes(n)` — the memory the plan was admitted with —
/// the set is that hash set instead.
class RidSet {
 public:
  /// Builds the set over `rid_at(0) .. rid_at(n - 1)`.
  RidSet(size_t n, const std::function<Rid(size_t)>& rid_at);
  explicit RidSet(const std::vector<Rid>& rids)
      : RidSet(rids.size(), [&rids](size_t i) { return rids[i]; }) {}

  bool Contains(const Rid& rid) const {
    if (hash_ != nullptr) return hash_->Contains(rid.Pack());
    // Below min_page_ wraps to a huge offset, so one compare bounds both ends.
    uint64_t page = static_cast<uint64_t>(rid.page) - min_page_;
    if (page >= page_span_ || rid.slot > max_slot_) return false;
    uint64_t bit = (page << slot_bits_) | rid.slot;
    return (bits_[bit >> 6] >> (bit & 63)) & 1;
  }

  /// True for the bitmap layout, false for the hash-set fallback.
  bool is_bitmap() const { return hash_ == nullptr; }
  size_t bytes() const {
    return hash_ != nullptr ? hash_->bytes() : bits_.size() * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> bits_;
  uint64_t min_page_ = 0;
  uint64_t page_span_ = 0;  // 0: the empty set
  uint16_t max_slot_ = 0;
  int slot_bits_ = 0;
  std::unique_ptr<U64HashSet> hash_;
};

/// Classic-hash ⋉̸ on an index: builds a `RidSet` over `rids` and removes,
/// in one sequential leaf-level pass, every entry whose RID is in it.
Status HashDeleteIndexByRids(BTree* index, const std::vector<Rid>& rids,
                             ReorgMode reorg,
                             BtreeBulkDeleteStats* stats = nullptr);

}  // namespace bulkdel

#endif  // BULKDEL_EXEC_HASH_DELETE_H_
