#include "workload/generator.h"

#include <algorithm>
#include <numeric>

#include "util/random.h"

namespace bulkdel {

namespace {
/// Duplicate-free random values: a shuffled permutation of a sparse range,
/// mirroring the paper ("each attribute is free of duplicates because
/// Jannink's B+-tree implementation does not support duplicates").
std::vector<int64_t> DistinctRandomValues(uint64_t n, Random* rng) {
  std::vector<int64_t> values(n);
  // Spread values over 8x the range so they look random, then shuffle.
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = static_cast<int64_t>(i * 8 + rng->Uniform(8));
  }
  for (uint64_t i = n; i > 1; --i) {
    std::swap(values[i - 1], values[rng->Uniform(i)]);
  }
  return values;
}
}  // namespace

std::vector<int64_t> Workload::MakeDeleteKeys(double fraction,
                                              uint64_t seed) const {
  Random rng(seed);
  uint64_t n = static_cast<uint64_t>(static_cast<double>(spec.n_tuples) *
                                     fraction);
  n = std::min<uint64_t>(n, spec.n_tuples);
  // Sample n distinct row positions (partial Fisher–Yates over an index
  // vector), then project their A values — exactly table D's construction.
  std::vector<uint64_t> rows(spec.n_tuples);
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<int64_t> keys;
  keys.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t j = i + rng.Uniform(spec.n_tuples - i);
    std::swap(rows[i], rows[j]);
    keys.push_back(values[0][rows[i]]);
  }
  return keys;
}

Result<Workload> LoadWorkload(Database* db, const WorkloadSpec& spec) {
  Workload workload;
  workload.spec = spec;

  Random rng(spec.seed);
  workload.values.resize(static_cast<size_t>(spec.n_int_columns));
  for (int c = 0; c < spec.n_int_columns; ++c) {
    workload.values[static_cast<size_t>(c)] =
        DistinctRandomValues(spec.n_tuples, &rng);
  }
  if (spec.clustered_on_a) {
    // Physically order by A: sort all columns by the A value.
    std::vector<uint64_t> order(spec.n_tuples);
    std::iota(order.begin(), order.end(), 0);
    const std::vector<int64_t>& a = workload.values[0];
    std::sort(order.begin(), order.end(),
              [&](uint64_t x, uint64_t y) { return a[x] < a[y]; });
    for (auto& column : workload.values) {
      std::vector<int64_t> sorted(spec.n_tuples);
      for (uint64_t i = 0; i < spec.n_tuples; ++i) {
        sorted[i] = column[order[i]];
      }
      column = std::move(sorted);
    }
  }

  workload.rids.reserve(spec.n_tuples);
  std::vector<int64_t> row(static_cast<size_t>(spec.n_int_columns));
  for (uint64_t i = 0; i < spec.n_tuples; ++i) {
    for (int c = 0; c < spec.n_int_columns; ++c) {
      row[static_cast<size_t>(c)] = workload.values[static_cast<size_t>(c)][i];
    }
    BULKDEL_ASSIGN_OR_RETURN(Rid rid, db->InsertRow(spec.table_name, row));
    workload.rids.push_back(rid);
  }
  return workload;
}

Result<Workload> SetUpPaperDatabase(
    Database* db, const WorkloadSpec& spec,
    const std::vector<std::string>& indexed_columns,
    const IndexOptions& a_options) {
  BULKDEL_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::PaperStyle(spec.n_int_columns, spec.tuple_size));
  BULKDEL_RETURN_IF_ERROR(
      db->CreateTable(spec.table_name, schema).status());
  // Heap first, then each index by CreateIndex's backfill (heap scan,
  // external sort, BulkLoad): the leaves come out full and chained in page
  // order, as a loader builds them.
  BULKDEL_ASSIGN_OR_RETURN(Workload workload, LoadWorkload(db, spec));
  for (const std::string& column : indexed_columns) {
    IndexOptions options;
    bool clustered = false;
    if (column == "A") {
      options = a_options;
      options.unique = true;  // A is the key of R
      clustered = spec.clustered_on_a;
    }
    BULKDEL_RETURN_IF_ERROR(
        db->CreateIndex(spec.table_name, column, options, clustered)
            .status());
  }
  return workload;
}

}  // namespace bulkdel
