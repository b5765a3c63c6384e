#include "plan/cost_model.h"

#include <algorithm>
#include <cmath>

#include "btree/btree_node.h"
#include "exec/hash_delete.h"
#include "storage/page.h"

namespace bulkdel {

CostModel::CostModel(const DiskModel& disk, size_t memory_budget_bytes)
    : disk_(disk),
      memory_budget_(memory_budget_bytes),
      pool_pages_(static_cast<double>(memory_budget_bytes) / kPageSize) {}

double CostModel::SeqPages(double n) const {
  return n * static_cast<double>(disk_.sequential_page_micros);
}

double CostModel::RandomPages(double n) const {
  return n * static_cast<double>(disk_.random_page_micros);
}

double CostModel::MissRatio(double working_set_pages) const {
  if (working_set_pages <= pool_pages_) return 0.05;  // warm-up residue
  return 1.0 - pool_pages_ / working_set_pages;
}

double CostModel::SortCost(uint64_t items, size_t item_bytes) const {
  double bytes = static_cast<double>(items) * static_cast<double>(item_bytes);
  if (bytes <= static_cast<double>(memory_budget_)) return 0.0;
  double pages = bytes / kPageSize;
  // Run generation (write+read) per merge level; fan-in bounds the levels.
  double fan_in =
      std::max(2.0, pool_pages_ - 1.0);
  double runs = bytes / static_cast<double>(memory_budget_);
  double levels = std::max(1.0, std::ceil(std::log(runs) / std::log(fan_in)));
  return SeqPages(2.0 * pages * levels);
}

bool CostModel::HashSetFits(uint64_t items) const {
  return U64HashSet::EstimateBytes(items) <= memory_budget_;
}

namespace {
/// Fraction of leaves that receive at least one delete, assuming the doomed
/// keys are spread uniformly (the paper's workload): 1 - (1-1/L)^n.
double TouchedFraction(uint64_t n_delete, uint32_t leaves) {
  if (leaves == 0) return 0.0;
  double l = static_cast<double>(leaves);
  return 1.0 - std::exp(-static_cast<double>(n_delete) / l);
}
}  // namespace

double CostModel::IndexMergePassCost(const IndexInfo& index,
                                     uint64_t n_delete) const {
  double sort = SortCost(n_delete, sizeof(int64_t) + sizeof(uint64_t));
  double read = SeqPages(index.leaves);
  double write = SeqPages(static_cast<double>(index.leaves) *
                          TouchedFraction(n_delete, index.leaves));
  return sort + read + write;
}

double CostModel::IndexHashPassCost(const IndexInfo& index,
                                    uint64_t n_delete) const {
  double read = SeqPages(index.leaves);
  double write = SeqPages(static_cast<double>(index.leaves) *
                          TouchedFraction(n_delete, index.leaves));
  return read + write;
}

double CostModel::IndexPartitionedPassCost(const IndexInfo& index,
                                           uint64_t n_delete) const {
  double list_pages =
      static_cast<double>(n_delete) *
      (sizeof(int64_t) + sizeof(uint64_t)) / kPageSize;
  double staging = HashSetFits(n_delete) ? 0.0 : SeqPages(2.0 * list_pages);
  return staging + IndexHashPassCost(index, n_delete);
}

double CostModel::TablePassCost(const TableInfo& table,
                                uint64_t n_delete) const {
  double touched = static_cast<double>(table.pages) *
                   TouchedFraction(n_delete, table.pages);
  // Page-ordered pass: touched pages read ~sequentially (gaps cost a little
  // more; approximate with sequential since RIDs are sorted).
  double sort = SortCost(n_delete, sizeof(uint64_t));
  return sort + SeqPages(touched) + SeqPages(touched);  // read + write back
}

double CostModel::IndexRangeLeafRunCost(const IndexInfo& index,
                                        uint64_t n_delete) const {
  if (index.entries == 0) return 0.0;
  // A contiguous key range covers a contiguous run of leaves.
  double frac = std::min(
      1.0, static_cast<double>(n_delete) / static_cast<double>(index.entries));
  double covered = static_cast<double>(index.leaves) * frac;
  // Each covered leaf is read once (sequential chain walk) and never
  // written: emptied leaves are spliced out of the chain. The pass writes
  // the ~2 boundary leaves, the 2 splice neighbours, the inner levels that
  // ReplaceInnerLevels rebuilds on fresh pages over the surviving leaves
  // (survivors / (fan-out - 1) pages summed over every level), and the
  // meta page.
  double survivors = std::max(1.0, static_cast<double>(index.leaves) - covered);
  double fan_out = BTreeNode::InnerPageCapacity();
  double inner =
      index.height > 1 ? std::max(1.0, survivors / (fan_out - 1.0)) : 0.0;
  double read = SeqPages(covered);
  double write = SeqPages(2.0 + 2.0 + inner + 1.0);
  return read + write;
}

double CostModel::HeapExtentDropCost(const TableInfo& table,
                                     uint64_t n_delete) const {
  if (table.tuples == 0) return 0.0;
  double frac = std::min(
      1.0, static_cast<double>(n_delete) / static_cast<double>(table.tuples));
  double covered = static_cast<double>(table.pages) * frac;
  // Fully-covered pages are never read: the splice rewrites one predecessor
  // page per dropped run (a contiguous range is ~1 run), and the ~2 boundary
  // pages take the ordinary read-modify-write path. The page frees are
  // header-only metadata writes, far below one page I/O each — charge a
  // small per-page residue so a huge drop is not literally free.
  double boundary = RandomPages(2.0) + SeqPages(2.0);
  double splice = RandomPages(1.0);
  double residue = SeqPages(covered) * 0.02;
  return boundary + splice + residue;
}

double CostModel::TraditionalCost(const TableInfo& table,
                                  const std::vector<IndexInfo>& indices,
                                  uint64_t n_delete, bool sorted_list) const {
  double n = static_cast<double>(n_delete);
  double cost = sorted_list ? SortCost(n_delete, sizeof(int64_t)) : 0.0;

  for (const IndexInfo& index : indices) {
    double leaf_ws = index.leaves;
    if (index.is_key_index && sorted_list) {
      // Sorted probes walk the leaf level in order: each touched leaf is hit
      // once, inner nodes stay cached.
      double touched = static_cast<double>(index.leaves) *
                       TouchedFraction(n_delete, index.leaves);
      cost += RandomPages(touched * MissRatio(leaf_ws)) +
              SeqPages(touched);  // write-back
      continue;
    }
    // Random root-to-leaf probe per record. Inner levels cache well when the
    // pool can hold them; leaves mostly miss.
    double inner_pages = std::max(1.0, index.leaves / 100.0);
    double inner_miss = MissRatio(inner_pages);
    double per_probe =
        static_cast<double>(index.height - 1) * inner_miss +  // inner levels
        MissRatio(leaf_ws);                                   // leaf read
    double writeback = MissRatio(leaf_ws);  // dirty leaf eventually rewritten
    cost += RandomPages(n * (per_probe + writeback));
  }

  // Table accesses: random per record (in RID order only when the key index
  // is clustered AND the list is sorted).
  const IndexInfo* key_index = nullptr;
  for (const IndexInfo& index : indices) {
    if (index.is_key_index) key_index = &index;
  }
  bool rid_ordered = sorted_list && key_index != nullptr &&
                     key_index->clustered;
  double touched_pages = static_cast<double>(table.pages) *
                         TouchedFraction(n_delete, table.pages);
  if (rid_ordered) {
    cost += SeqPages(touched_pages) + SeqPages(touched_pages);
  } else {
    double miss = MissRatio(table.pages);
    cost += RandomPages(n * miss) + RandomPages(touched_pages * miss);
  }
  return cost;
}

double CostModel::DropCreateCost(const TableInfo& table,
                                 const std::vector<IndexInfo>& indices,
                                 uint64_t n_delete) const {
  std::vector<IndexInfo> kept;
  std::vector<IndexInfo> dropped;
  for (const IndexInfo& index : indices) {
    if (index.is_key_index) {
      kept.push_back(index);
    } else {
      dropped.push_back(index);
    }
  }
  double cost = TraditionalCost(table, kept, n_delete, /*sorted_list=*/true);
  for (const IndexInfo& index : dropped) {
    // Rebuild: full table scan + external sort of all entries + leaf writes.
    double entry_pages =
        static_cast<double>(table.tuples) *
        BTreeNode::kLeafEntrySize / kPageSize;
    cost += SeqPages(table.pages);
    cost += SortCost(table.tuples, BTreeNode::kLeafEntrySize) +
            SeqPages(2.0 * entry_pages);  // run write + read even if 1 pass
    cost += SeqPages(entry_pages);        // leaf construction
    (void)index;
  }
  return cost;
}

}  // namespace bulkdel
