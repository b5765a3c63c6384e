#include "exec/partitioned_delete.h"

#include <algorithm>

#include "exec/hash_delete.h"
#include "storage/spill.h"

namespace bulkdel {

namespace {
/// Largest item count whose hash set fits `budget` bytes.
size_t MaxItemsForBudget(size_t budget) {
  size_t m = budget / (2 * sizeof(uint64_t));
  while (m > 8 && U64HashSet::EstimateBytes(m) > budget) m /= 2;
  return std::max<size_t>(m, 8);
}

/// Deletes one partition: probe by RID over the bounded leaf range.
Status DeletePartition(BTree* index, const std::vector<KeyRid>& part,
                       ReorgMode reorg, BtreeBulkDeleteStats* agg) {
  if (part.empty()) return Status::OK();
  RidSet set(part.size(), [&part](size_t i) { return part[i].rid; });
  int64_t lo = part.front().key;
  int64_t hi = part.front().key;
  for (const KeyRid& e : part) {
    lo = std::min(lo, e.key);
    hi = std::max(hi, e.key);
  }
  BtreeBulkDeleteStats stats;
  BULKDEL_RETURN_IF_ERROR(index->BulkDeleteByPredicate(
      [&](int64_t, const Rid& rid) { return set.Contains(rid); }, reorg,
      &stats, lo, hi));
  agg->entries_deleted += stats.entries_deleted;
  agg->leaves_visited += stats.leaves_visited;
  agg->leaves_freed += stats.leaves_freed;
  agg->skipped_undeletable += stats.skipped_undeletable;
  return Status::OK();
}
}  // namespace

Status PartitionedHashDeleteIndex(BTree* index, DiskManager* disk,
                                  size_t memory_budget_bytes,
                                  const std::vector<KeyRid>& entries,
                                  ReorgMode reorg,
                                  PartitionedDeleteStats* stats) {
  PartitionedDeleteStats local;
  if (!entries.empty()) {
    size_t max_items = MaxItemsForBudget(memory_budget_bytes);
    size_t n_parts = (entries.size() + max_items - 1) / max_items;
    local.partitions = static_cast<int>(n_parts);

    if (n_parts <= 1) {
      BULKDEL_RETURN_IF_ERROR(
          DeletePartition(index, entries, reorg, &local.btree));
    } else {
      // Range-partition by key into equal-sized chunks of the key-ordered
      // list (nth_element per boundary; no full sort needed).
      std::vector<KeyRid> work = entries;
      std::vector<size_t> bounds;
      for (size_t p = 1; p < n_parts; ++p) {
        bounds.push_back(p * work.size() / n_parts);
      }
      auto by_key = [](const KeyRid& a, const KeyRid& b) { return a < b; };
      size_t prev = 0;
      for (size_t b : bounds) {
        std::nth_element(work.begin() + prev, work.begin() + b, work.end(),
                         by_key);
        prev = b;
      }
      // The whole list exceeds the budget by construction: stage each
      // partition to scratch pages, then process them one at a time, so at
      // most one partition's data is in memory at once.
      std::vector<SpilledList<KeyRid>> staged;
      prev = 0;
      for (size_t p = 0; p < n_parts; ++p) {
        size_t end = p + 1 < n_parts ? bounds[p] : work.size();
        std::vector<KeyRid> part(work.begin() + prev, work.begin() + end);
        BULKDEL_ASSIGN_OR_RETURN(SpilledList<KeyRid> list,
                                 SpillToDisk(disk, part));
        local.pages_spilled += static_cast<int64_t>(list.pages.size());
        staged.push_back(std::move(list));
        prev = end;
      }
      work.clear();
      work.shrink_to_fit();
      for (SpilledList<KeyRid>& list : staged) {
        BULKDEL_ASSIGN_OR_RETURN(std::vector<KeyRid> part,
                                 ReadSpilled(disk, list));
        BULKDEL_RETURN_IF_ERROR(
            DeletePartition(index, part, reorg, &local.btree));
        BULKDEL_RETURN_IF_ERROR(FreeSpilled(disk, &list));
      }
    }
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace bulkdel
