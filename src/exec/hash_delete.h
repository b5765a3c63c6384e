#ifndef BULKDEL_EXEC_HASH_DELETE_H_
#define BULKDEL_EXEC_HASH_DELETE_H_

#include <cstdint>
#include <vector>

#include "btree/btree.h"
#include "util/result.h"

namespace bulkdel {

/// Open-addressing hash set of 64-bit values with explicit size accounting.
///
/// The classic-hash bulk-delete plan (paper §2.2.2 / Fig. 4) builds a
/// main-memory hash table over the RID list and probes every leaf entry and
/// table record against it; the plan is only applicable when the table fits
/// the memory budget, which `EstimateBytes` lets the planner check.
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

/// Classic-hash ⋉̸ on an index: builds a hash set over `rids` and removes, in
/// one sequential leaf-level pass, every entry whose RID probes positive.
Status HashDeleteIndexByRids(BTree* index, const std::vector<Rid>& rids,
                             ReorgMode reorg,
                             BtreeBulkDeleteStats* stats = nullptr);

}  // namespace bulkdel

#endif  // BULKDEL_EXEC_HASH_DELETE_H_
