#ifndef BULKDEL_PLAN_PLANNER_H_
#define BULKDEL_PLAN_PLANNER_H_

#include <vector>

#include "plan/cost_model.h"
#include "plan/plan.h"
#include "util/result.h"

namespace bulkdel {

/// Everything the planner needs to know about one bulk DELETE.
struct PlannerInput {
  TableInfo table;
  std::vector<IndexInfo> indices;  ///< exactly one flagged is_key_index
  uint64_t n_delete = 0;
  bool keys_sorted = false;  ///< delete list arrives pre-sorted
  /// Range-predicate class (DELETE ... BETWEEN lo AND hi): the plan never
  /// materializes a key list up front. n_delete then holds the clamped
  /// width estimate min(hi - lo + 1, tuples).
  bool is_range = false;
  int64_t range_lo = 0;
  int64_t range_hi = 0;
};

/// Cost-based planner for bulk DELETE statements.
///
/// The paper observes that the ⋉̸ operator behaves like a join, so the
/// optimizer chooses (a) horizontal vs vertical processing, (b) the ⋉̸
/// method per structure (merge / classic hash / partitioned hash), and
/// (c) the primary probe predicate (key for the key index, RID downstream).
/// Processing order is fixed by correctness: the key index locates the RIDs,
/// the base table produces the projections, and unique indices go before
/// non-unique ones so they can come back on-line at commit (§3.1.3).
class Planner {
 public:
  explicit Planner(const CostModel& cost) : cost_(cost) {}

  /// Builds the plan for a forced strategy (kOptimizer picks the cheapest).
  Result<BulkDeletePlan> PlanFor(Strategy strategy,
                                 const PlannerInput& input) const;

  /// Cost-based choice among all strategies, with per-index method mixing
  /// for the vertical plan.
  Result<BulkDeletePlan> Choose(const PlannerInput& input) const;

  /// The cheapest vertical plan (per-index method mixing): kOptimizer's
  /// choice for a table that is one leg of a multi-table statement, which
  /// runs vertically by construction.
  Result<BulkDeletePlan> ChooseVertical(const PlannerInput& input) const {
    return MakeVertical(input, /*forced_method=*/-1);
  }

 private:
  BulkDeletePlan MakeHorizontal(Strategy strategy,
                                const PlannerInput& input) const;
  BulkDeletePlan MakeDropCreate(const PlannerInput& input) const;
  /// `forced_method` < 0 means pick the cheapest method per index.
  Result<BulkDeletePlan> MakeVertical(const PlannerInput& input,
                                      int forced_method) const;

  const CostModel& cost_;
};

}  // namespace bulkdel

#endif  // BULKDEL_PLAN_PLANNER_H_
