#ifndef BULKDEL_PLAN_PLAN_H_
#define BULKDEL_PLAN_PLAN_H_

#include <string>
#include <vector>

namespace bulkdel {

/// Execution strategies for a bulk DELETE statement.
enum class Strategy {
  /// Record-at-a-time ("horizontal"): probe the key index per key, delete the
  /// record from the table and every index before the next record.
  kTraditional,
  /// Traditional, but the delete list is sorted first (the paper's
  /// sorted/trad baseline).
  kTraditionalSorted,
  /// Drop all secondary indices, delete traditionally, rebuild them.
  kDropCreate,
  /// Vertical set-oriented processing with sort/merge ⋉̸ operators (Fig. 3).
  kVerticalSortMerge,
  /// Vertical with classic main-memory hash ⋉̸ operators (Fig. 4).
  kVerticalHash,
  /// Vertical with range-partitioned hash ⋉̸ operators (Fig. 5).
  kVerticalPartitionedHash,
  /// Let the cost-based planner pick the strategy and per-structure methods.
  kOptimizer,
};

const char* StrategyName(Strategy s);

/// Inverse of StrategyName ("vertical-sort-merge" -> kVerticalSortMerge).
/// Returns false (leaving *out untouched) for unknown names.
bool StrategyFromName(const std::string& name, Strategy* out);

/// Join method of one ⋉̸ operator (paper §2.1: "⋉̸ method").
enum class DeleteMethod {
  kMerge,            ///< sort the list, one merging leaf/page pass
  kClassicHash,      ///< main-memory hash set, one probing pass
  kPartitionedHash,  ///< range partitions of memory-fitting hash sets
};

const char* DeleteMethodName(DeleteMethod m);

/// Primary ⋉̸ predicate (paper §2.1): locate doomed entries by key or by RID.
enum class ProbeBy { kKey, kRid };

/// One vertical step: a ⋉̸ against a single structure.
struct PlanStep {
  std::string structure;  ///< "R" for the table, "R.A" etc. for indices
  bool is_table = false;
  DeleteMethod method = DeleteMethod::kMerge;
  ProbeBy probe = ProbeBy::kKey;
  /// The incoming list already matches the structure's physical order, so
  /// the sort is elided (clustered-index interesting orders, §2.2.1).
  bool input_sorted = false;
  double est_micros = 0;
  std::string note;

  /// Node id of this step in the plan's phase DAG (dense, 0-based).
  int phase_id = -1;
  /// phase_ids of the steps whose output this step consumes. The key-index
  /// probe has no dependencies, the table pass depends on the RID list it
  /// produces, and every secondary-index feed depends only on the table pass
  /// — secondaries are mutually independent and may execute concurrently.
  std::vector<int> deps;
};

/// A complete bulk-delete plan. Horizontal plans are a single conceptual
/// step; vertical plans are a *phase DAG*: the key-index probe feeds the
/// table pass, which feeds one independent ⋉̸ per secondary index. The
/// executor schedules steps whose dependencies are satisfied — concurrently
/// when `DatabaseOptions::exec_threads` allows — with unique indices ordered
/// before non-unique ones at equal depth so the commit point is reached as
/// early as possible (§3.1.3).
struct BulkDeletePlan {
  Strategy strategy = Strategy::kVerticalSortMerge;
  std::vector<PlanStep> steps;
  double est_micros = 0;

  std::string Explain() const;
};

}  // namespace bulkdel

#endif  // BULKDEL_PLAN_PLAN_H_
