#ifndef BULKDEL_WORKLOAD_GENERATOR_H_
#define BULKDEL_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"
#include "util/result.h"

namespace bulkdel {

/// The paper's benchmark database (§4.1), scale-parameterized: one table R
/// with `n_int_columns` duplicate-free random integer attributes A, B, C, ...
/// padded to `tuple_size` bytes. The paper uses 1,000,000 tuples of 512 bytes
/// with ten integer attributes; the benchmarks default to a scaled-down
/// configuration with the memory budget scaled by the same factor.
struct WorkloadSpec {
  std::string table_name = "R";
  uint64_t n_tuples = 100000;
  int n_int_columns = 10;
  uint32_t tuple_size = 256;
  /// Physically order the table by column A (makes an index on A clustered).
  bool clustered_on_a = false;
  uint64_t seed = 20010407;  // ICDE 2001
};

/// The generated population: per indexed column, the value of every row in
/// row order. Used to build delete lists that hit existing rows.
struct Workload {
  WorkloadSpec spec;
  /// values[c][row] = value of int column c for that row (row = load order).
  std::vector<std::vector<int64_t>> values;
  std::vector<Rid> rids;  ///< RID of each loaded row, in load order

  /// A delete list for the paper's statement: the A-values of
  /// `fraction` * n_tuples distinct random rows (table D's contents).
  std::vector<int64_t> MakeDeleteKeys(double fraction, uint64_t seed) const;
};

/// Loads `spec.n_tuples` generated rows into the existing table
/// `spec.table_name` by one `InsertRow` per row, so any index that already
/// exists is populated by row-at-a-time inserts.
Result<Workload> LoadWorkload(Database* db, const WorkloadSpec& spec);

/// Convenience used by benchmarks: creates R, loads the rows, then creates
/// the indices on the given columns ("A" is unique + the key index;
/// clustered if spec says so). Each index is built by `CreateIndex`'s
/// backfill — heap scan, external sort, `BTree::BulkLoad` — so its leaves
/// are full and chained in ascending page order.
Result<Workload> SetUpPaperDatabase(Database* db, const WorkloadSpec& spec,
                                    const std::vector<std::string>& indexed_columns,
                                    const IndexOptions& a_options = {});

}  // namespace bulkdel

#endif  // BULKDEL_WORKLOAD_GENERATOR_H_
