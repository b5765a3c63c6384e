#ifndef BULKDEL_EXEC_DELETE_LIST_H_
#define BULKDEL_EXEC_DELETE_LIST_H_

#include <cstdint>
#include <vector>

#include "table/heap_table.h"
#include "util/result.h"

namespace bulkdel {

/// Extraction of the delete list — the paper's table D holding the key values
/// of every record to delete (produced by the first step of archiving).

/// Projects column `column` of every tuple in `d_table`. `max_keys`
/// (0 = unbounded) bounds the result *during* the scan: the scan stops with
/// ResourceExhausted as soon as the bound would be exceeded, instead of
/// materializing the whole vector first.
Result<std::vector<int64_t>> ExtractKeysFromTable(HeapTable* d_table,
                                                  int column,
                                                  size_t max_keys = 0);

}  // namespace bulkdel

#endif  // BULKDEL_EXEC_DELETE_LIST_H_
