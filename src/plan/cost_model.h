#ifndef BULKDEL_PLAN_COST_MODEL_H_
#define BULKDEL_PLAN_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/disk_model.h"

namespace bulkdel {

/// Statistics the planner keeps about the target table.
struct TableInfo {
  uint64_t tuples = 0;
  uint32_t pages = 0;
  uint32_t tuples_per_page = 1;
};

/// Statistics about one index of the target table.
struct IndexInfo {
  std::string name;
  int column = -1;
  uint64_t entries = 0;
  uint32_t leaves = 1;
  int height = 1;
  bool unique = false;
  /// Processing-order hint (§3.1.3); higher goes earlier among non-unique.
  int16_t priority = 0;
  /// Table is physically ordered by this index's key, so RID order and key
  /// order coincide (the paper's clustered-index special cases).
  bool clustered = false;
  /// This index is on the DELETE statement's IN-list column (the I_A role:
  /// it locates the doomed records and must be processed first).
  bool is_key_index = false;
};

/// I/O-centric cost model for bulk-delete planning. All costs are estimated
/// simulated-disk microseconds under the same DiskModel the DiskManager
/// charges, so estimates and measurements are directly comparable.
class CostModel {
 public:
  CostModel(const DiskModel& disk, size_t memory_budget_bytes);

  double SeqPages(double n) const;
  double RandomPages(double n) const;

  /// Fraction of random accesses to a working set of `pages` that miss the
  /// buffer pool (clamped simple cache model).
  double MissRatio(double working_set_pages) const;

  /// Cost of externally sorting `items` records of `item_bytes` each:
  /// zero I/O when the list fits the budget, otherwise spill + merge passes.
  double SortCost(uint64_t items, size_t item_bytes) const;

  /// Whether a hash set over `items` RIDs fits the memory budget.
  bool HashSetFits(uint64_t items) const;

  /// One merging ⋉̸ pass over an index leaf level: sequential read of the
  /// leaves plus write-back of the touched fraction.
  double IndexMergePassCost(const IndexInfo& index, uint64_t n_delete) const;

  /// One probing (classic hash) pass: same leaf traffic, no sort.
  double IndexHashPassCost(const IndexInfo& index, uint64_t n_delete) const;

  /// Range-partitioned hash: leaf pass plus partition staging I/O.
  double IndexPartitionedPassCost(const IndexInfo& index,
                                  uint64_t n_delete) const;

  /// The table ⋉̸ pass: page-ordered pass over the pages holding doomed
  /// tuples (≈ min(n_delete, pages) page reads + dirty write-backs).
  double TablePassCost(const TableInfo& table, uint64_t n_delete) const;

  /// Range leaf-run pass over the key index: descend once, walk the covered
  /// leaf chain. Fully-covered leaves are read and spliced out unwritten;
  /// the writes are the two boundary leaves, the splice neighbours, the
  /// rebuilt inner levels and the meta page. No sort — a range is trivially
  /// in key order.
  double IndexRangeLeafRunCost(const IndexInfo& index,
                               uint64_t n_delete) const;

  /// Range extent-drop pass over the heap: fully-covered pages are spliced
  /// out of the chain without being read (one predecessor write per dropped
  /// run), and only boundary pages pay the ordinary read-modify-write. Valid
  /// only with a clustered key index (contiguous keys ⇒ contiguous pages).
  double HeapExtentDropCost(const TableInfo& table, uint64_t n_delete) const;

  /// Traditional horizontal execution: per-record random probes of the key
  /// index, the table, and every index.
  double TraditionalCost(const TableInfo& table,
                         const std::vector<IndexInfo>& indices,
                         uint64_t n_delete, bool sorted_list) const;

  /// Drop secondary indices, traditional delete on the rest, rebuild.
  double DropCreateCost(const TableInfo& table,
                        const std::vector<IndexInfo>& indices,
                        uint64_t n_delete) const;

  size_t memory_budget_bytes() const { return memory_budget_; }
  const DiskModel& disk() const { return disk_; }

 private:
  DiskModel disk_;
  size_t memory_budget_;
  double pool_pages_;
};

}  // namespace bulkdel

#endif  // BULKDEL_PLAN_COST_MODEL_H_
