#ifndef BULKDEL_SORT_EXTERNAL_SORT_H_
#define BULKDEL_SORT_EXTERNAL_SORT_H_

#include <algorithm>
#include <cstring>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "btree/btree_node.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "table/rid.h"
#include "util/result.h"
#include "util/status.h"

namespace bulkdel {

/// Counters reported by an external sort.
struct SortStats {
  int64_t items = 0;
  int64_t runs = 0;           ///< spilled runs (0 = pure in-memory sort)
  int64_t merge_passes = 0;   ///< extra passes beyond the final merge
  int64_t pages_spilled = 0;  ///< scratch pages written across all passes
};

/// External merge sort of trivially-copyable records under a byte budget.
///
/// The paper's bulk-delete plans sort the (small) lists of keys and RIDs that
/// specify what to delete — never the tables or indices themselves — so the
/// common case is a single in-memory sort. When a list exceeds the budget,
/// runs are spilled to scratch pages of the same DiskManager, so the spill
/// I/O is charged to the experiment like every other page access (sequential
/// within a run). Multi-pass merging kicks in when the run count exceeds the
/// fan-in the budget allows.
template <typename T, typename Less = std::less<T>>
class ExternalSorter {
  static_assert(std::is_trivially_copyable_v<T>,
                "ExternalSorter requires trivially copyable records");

 public:
  /// `memory_budget_bytes` bounds both run size and merge fan-in.
  ExternalSorter(DiskManager* disk, size_t memory_budget_bytes,
                 Less less = Less())
      : disk_(disk),
        budget_items_(std::max<size_t>(memory_budget_bytes / sizeof(T),
                                       2 * kItemsPerPage)),
        less_(less) {}

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  Status Add(const T& item) {
    current_.push_back(item);
    ++stats_.items;
    if (current_.size() >= budget_items_) {
      return SpillRun();
    }
    return Status::OK();
  }

  Status AddAll(const std::vector<T>& items) {
    for (const T& item : items) {
      BULKDEL_RETURN_IF_ERROR(Add(item));
    }
    return Status::OK();
  }

  /// Sorts everything added so far and streams the records in order. The
  /// sorter is exhausted afterwards; scratch pages are freed.
  Status Finish(const std::function<Status(const T&)>& emit) {
    if (runs_.empty()) {
      // Entire input fit in the budget: one in-memory sort, no I/O.
      std::sort(current_.begin(), current_.end(), less_);
      for (const T& item : current_) {
        BULKDEL_RETURN_IF_ERROR(emit(item));
      }
      current_.clear();
      return Status::OK();
    }
    if (!current_.empty()) {
      BULKDEL_RETURN_IF_ERROR(SpillRun());
    }
    // Reduce the run count until one merge fits the budget's fan-in
    // (one input page per run plus one output page). A fan-in below 2 could
    // never converge, so binary merging is the floor.
    size_t fan_in =
        std::max<size_t>(budget_items_ / kItemsPerPage > 1
                             ? budget_items_ / kItemsPerPage - 1
                             : 2,
                         2);
    while (runs_.size() > fan_in) {
      ++stats_.merge_passes;
      std::vector<Run> next;
      for (size_t i = 0; i < runs_.size(); i += fan_in) {
        size_t hi = std::min(i + fan_in, runs_.size());
        std::vector<Run> group(runs_.begin() + i, runs_.begin() + hi);
        Run merged;
        BULKDEL_RETURN_IF_ERROR(MergeRuns(group, [&](const T& item) {
          return AppendToRun(&merged, item);
        }));
        BULKDEL_RETURN_IF_ERROR(FlushRun(&merged));
        for (auto r = group.rbegin(); r != group.rend(); ++r) {
          BULKDEL_RETURN_IF_ERROR(FreeRun(&*r));
        }
        next.push_back(std::move(merged));
      }
      runs_ = std::move(next);
    }
    std::vector<Run> all = std::move(runs_);
    runs_.clear();
    Status s = MergeRuns(all, emit);
    for (auto r = all.rbegin(); r != all.rend(); ++r) {
      Status fs = FreeRun(&*r);
      if (s.ok()) s = fs;
    }
    return s;
  }

  /// Convenience: collect the sorted output into a vector.
  Result<std::vector<T>> FinishToVector() {
    std::vector<T> out;
    out.reserve(static_cast<size_t>(stats_.items));
    BULKDEL_RETURN_IF_ERROR(Finish([&](const T& item) {
      out.push_back(item);
      return Status::OK();
    }));
    return out;
  }

  const SortStats& stats() const { return stats_; }

 private:
  static constexpr size_t kItemsPerPage = kPageSize / sizeof(T);

  struct Run {
    std::vector<PageId> pages;
    size_t count = 0;
    // Write-side buffer (only while building).
    std::vector<T> tail;
  };

  Status SpillRun() {
    std::sort(current_.begin(), current_.end(), less_);
    Run run;
    for (const T& item : current_) {
      BULKDEL_RETURN_IF_ERROR(AppendToRun(&run, item));
    }
    BULKDEL_RETURN_IF_ERROR(FlushRun(&run));
    runs_.push_back(std::move(run));
    ++stats_.runs;
    current_.clear();
    return Status::OK();
  }

  Status AppendToRun(Run* run, const T& item) {
    run->tail.push_back(item);
    ++run->count;
    if (run->tail.size() == kItemsPerPage) {
      return FlushRun(run);
    }
    return Status::OK();
  }

  Status FlushRun(Run* run) {
    if (run->tail.empty()) return Status::OK();
    char page[kPageSize] = {};
    std::memcpy(page, run->tail.data(), run->tail.size() * sizeof(T));
    BULKDEL_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
    BULKDEL_RETURN_IF_ERROR(disk_->WritePage(id, page));
    run->pages.push_back(id);
    ++stats_.pages_spilled;
    run->tail.clear();
    return Status::OK();
  }

  /// Frees the run's pages last-first: the disk's free list hands pages out
  /// last-freed-first, so the runs freed in reverse come back in the order
  /// they were written. A bulk load that follows the sort (index creation)
  /// then chains its leaves in ascending page order, not descending.
  Status FreeRun(Run* run) {
    for (auto id = run->pages.rbegin(); id != run->pages.rend(); ++id) {
      BULKDEL_RETURN_IF_ERROR(disk_->FreePage(*id));
    }
    run->pages.clear();
    run->count = 0;
    return Status::OK();
  }

  /// Cursor over one spilled run, buffering one page.
  struct Cursor {
    const Run* run;
    size_t page_index = 0;
    size_t item_index = 0;   // within the buffered page
    size_t consumed = 0;     // total items consumed
    std::vector<T> buffer;

    Status Load(DiskManager* disk) {
      char page[kPageSize];
      BULKDEL_RETURN_IF_ERROR(disk->ReadPage(run->pages[page_index], page));
      size_t remaining = run->count - page_index * kItemsPerPage;
      size_t n = std::min(remaining, kItemsPerPage);
      buffer.resize(n);
      std::memcpy(buffer.data(), page, n * sizeof(T));
      item_index = 0;
      return Status::OK();
    }

    bool exhausted() const { return consumed >= run->count; }
    const T& peek() const { return buffer[item_index]; }

    Status Advance(DiskManager* disk) {
      ++item_index;
      ++consumed;
      if (consumed < run->count && item_index >= buffer.size()) {
        ++page_index;
        return Load(disk);
      }
      return Status::OK();
    }
  };

  Status MergeRuns(const std::vector<Run>& runs,
                   const std::function<Status(const T&)>& emit) {
    std::vector<Cursor> cursors;
    cursors.reserve(runs.size());
    for (const Run& run : runs) {
      if (run.count == 0) continue;
      Cursor c;
      c.run = &run;
      BULKDEL_RETURN_IF_ERROR(c.Load(disk_));
      cursors.push_back(std::move(c));
    }
    auto greater = [&](size_t a, size_t b) {
      return less_(cursors[b].peek(), cursors[a].peek());
    };
    std::priority_queue<size_t, std::vector<size_t>, decltype(greater)> heap(
        greater);
    for (size_t i = 0; i < cursors.size(); ++i) heap.push(i);
    while (!heap.empty()) {
      size_t i = heap.top();
      heap.pop();
      BULKDEL_RETURN_IF_ERROR(emit(cursors[i].peek()));
      BULKDEL_RETURN_IF_ERROR(cursors[i].Advance(disk_));
      if (!cursors[i].exhausted()) heap.push(i);
    }
    return Status::OK();
  }

  DiskManager* disk_;
  size_t budget_items_;
  Less less_;
  std::vector<T> current_;
  std::vector<Run> runs_;
  SortStats stats_;
};

/// Comparator sorting KeyRid lists by physical RID order — used to adapt a
/// RID list to the base table's layout before the table ⋉̸ pass.
struct OrderByRid {
  bool operator()(const KeyRid& a, const KeyRid& b) const {
    return a.rid < b.rid;
  }
};

/// Sorts a RID list in place under the budget, spilling if needed.
Status SortRids(DiskManager* disk, size_t budget_bytes, std::vector<Rid>* rids,
                SortStats* stats = nullptr);

/// Sorts a (key, RID) list in (key, rid) order under the budget.
Status SortKeyRids(DiskManager* disk, size_t budget_bytes,
                   std::vector<KeyRid>* entries, SortStats* stats = nullptr);

/// Sorts a bare key list under the budget.
Status SortKeys(DiskManager* disk, size_t budget_bytes,
                std::vector<int64_t>* keys, SortStats* stats = nullptr);

}  // namespace bulkdel

#endif  // BULKDEL_SORT_EXTERNAL_SORT_H_
