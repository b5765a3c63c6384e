#ifndef BULKDEL_CORE_CONSTRAINTS_H_
#define BULKDEL_CORE_CONSTRAINTS_H_

#include <set>
#include <string>
#include <vector>

#include "core/database.h"

namespace bulkdel {

/// Set-oriented referential-integrity processing for bulk deletes, done in
/// two strictly separated phases (§2.1: "so that no work needs to be
/// undone"):
///
///   Phase A (read-only planning) — derive the doomed rows' referenced
///   column values *once* (one index lookup + one RID sort + one fetch pass
///   shared across every FK that fans out of the table), evaluate **every**
///   RESTRICT — including RESTRICTs reached transitively through CASCADE
///   children — against the pre-statement state, and only then emit a
///   cascade plan. A RESTRICT violation therefore fails the statement
///   before any mutation, regardless of the catalog order of the FKs.
///
///   Phase B (execution) — the caller runs the plan's per-child-table
///   deletes and the parent delete as legs of one vertical statement: one
///   WAL envelope, one phase DAG, one durability barrier per level.
///
/// `cascade_path` carries the tables already being deleted up-stack to
/// reject cyclic cascades. See docs/CONSTRAINTS.md.

/// One CASCADE leg of a planned multi-table delete: a vertical bulk delete
/// of `table` keyed on `key_column` with the (sorted, deduplicated) doomed
/// parent values as the delete list.
struct CascadeChildDelete {
  std::string table;
  std::string key_column;
  std::vector<int64_t> keys;
};

/// The full fan-out of one bulk delete, flattened deepest-first. Phase B
/// runs `children` and the parent delete as legs of one vertical statement
/// (Database::ExecuteBulkDeletePlanned); each leg's keys were derived from
/// the pre-statement state, so no leg depends on another.
struct CascadePlan {
  std::vector<CascadeChildDelete> children;

  /// Total child keys across all legs (phase-trace item count).
  uint64_t TotalKeys() const {
    uint64_t n = 0;
    for (const CascadeChildDelete& c : children) n += c.keys.size();
    return n;
  }
};

/// Phase A for a bulk delete: read-only. On success `plan` holds every
/// CASCADE leg (deepest-first); any RESTRICT violation (direct or reached
/// through a CASCADE chain) or cascade cycle fails with nothing mutated.
/// With `DatabaseOptions::fk_shared_sort` (the default) the doomed RID set
/// of each table is derived and sorted once and shared across all of that
/// table's FKs; without it the derivation re-runs per FK (the ablation
/// baseline).
Status PlanForeignKeysForBulkDelete(Database* db, TableDef* table,
                                    const BulkDeleteSpec& spec,
                                    std::set<std::string>* cascade_path,
                                    CascadePlan* plan);

/// Row-level FK checks for DML. Verifies every FK of `child_table` is
/// satisfied by `tuple`'s values (the parent row must exist).
Status CheckChildInsert(Database* db, TableDef* child_table,
                        const char* tuple);

/// One CASCADE leg of a planned row delete: the child rows (by RID) doomed
/// in `table`.
struct RowCascadeTarget {
  std::string table;
  std::vector<Rid> rids;
};

/// Phase A for a single-row delete: read-only. Collects every transitively
/// referencing child row into `targets` (deepest-first) and fails on any
/// RESTRICT reference or cascade cycle with nothing mutated. Unindexed
/// child columns cost one hash-probed scan per child table per statement
/// (not one scan per referencing value).
Status PlanParentRowDelete(Database* db, TableDef* parent_table,
                           const char* tuple,
                           std::set<std::string>* cascade_path,
                           std::vector<RowCascadeTarget>* targets);

}  // namespace bulkdel

#endif  // BULKDEL_CORE_CONSTRAINTS_H_
