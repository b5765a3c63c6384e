#include "exec/delete_list.h"

#include <algorithm>
#include <string>

namespace bulkdel {

Result<std::vector<int64_t>> ExtractKeysFromTable(HeapTable* d_table,
                                                  int column,
                                                  size_t max_keys) {
  const Schema& schema = d_table->schema();
  if (column < 0 || static_cast<size_t>(column) >= schema.num_columns()) {
    return Status::InvalidArgument("bad projection column");
  }
  std::vector<int64_t> keys;
  size_t expected = d_table->tuple_count();
  keys.reserve(max_keys == 0 ? expected : std::min(expected, max_keys));
  BULKDEL_RETURN_IF_ERROR(
      d_table->Scan([&](const Rid&, const char* tuple) {
        if (max_keys != 0 && keys.size() >= max_keys) {
          return Status::ResourceExhausted(
              "delete list exceeds the session bound of " +
              std::to_string(max_keys) + " keys");
        }
        keys.push_back(schema.GetInt(tuple, static_cast<size_t>(column)));
        return Status::OK();
      }));
  return keys;
}

}  // namespace bulkdel
