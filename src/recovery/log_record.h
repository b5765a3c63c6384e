#ifndef BULKDEL_RECOVERY_LOG_RECORD_H_
#define BULKDEL_RECOVERY_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/page.h"
#include "table/rid.h"

namespace bulkdel {

/// Bulk-delete log record types (paper §3.2). The log makes an interrupted
/// bulk delete restartable *forward*: recovery finishes the deletion from the
/// last checkpoint instead of rolling it back.
enum class LogRecordType : uint8_t {
  /// A bulk delete started: carries table / key column identity.
  kBegin,
  /// An intermediate delete list was materialized to stable scratch pages
  /// ("the results of the join variants should be materialized to stable
  /// storage"). `label` names it after its leg's id ("R.A/input-keys",
  /// "R.A/rids", "R.A/feed:R.B", ...; core/executors.h LegLabel).
  kListMaterialized,
  /// A whole phase (one structure) finished and a checkpoint was taken.
  /// Values 2 and 3 are retired (kRetiredEntryRecord; the table pass logs no
  /// per-row record), so this and the later types keep their encoded values.
  kPhaseDone = 4,
  /// Table + unique indices done; the statement is committed and the table
  /// lock can be released (§3.1).
  kCommit,
  /// All indices caught up; the bulk delete is fully finished.
  kEnd,
  /// One concurrent-updater DML op (§3.1) made while a bulk delete held
  /// indices off-line. Logged *before* the heap/index mutations (`label` =
  /// table, `rid` identifies the row, `values` = full row for inserts,
  /// `count` = 1 for insert / 0 for delete), so any durable partial effect
  /// implies a durable record; recovery replays these idempotently over the
  /// heap and every index.
  kUpdaterRow,
  /// A side-file shard spilled its tail to scratch `pages`; recovery frees
  /// them (idempotently) — the ops themselves are re-derived from
  /// kUpdaterRow records. Values 8 and 9 are retired (side-file diagnostics
  /// that nothing read).
  kSideFileSpill = 10,
  /// One leaf a key-index pass changed (physiological redo info): `values`
  /// = the (key, packed-rid) pairs the pass removed from it, interleaved,
  /// `count` = the pair count, `pages` = the leaf when the pass detached it
  /// whole (range leaf-run; its free waits for finalize), else empty.
  /// Appended while the pass pins the leaf, so the buffer pool's WAL rule
  /// makes it durable before the leaf's write-back; recovery re-derives the
  /// doomed RIDs and the secondary-index feeds from the pairs.
  kLeafEntriesDeleted,
  /// Range delete: fully-covered heap extents were detached from the table's
  /// page chain without reading them. `pages` = the dropped heap pages,
  /// `count` = tuples they held. The pages are freed only at finalize (after
  /// kEnd is durable), so recovery re-detaches idempotently.
  kExtentDrop,
};

/// The encoded value older builds gave the per-entry key-index record (one
/// removed entry per record, before kLeafEntriesDeleted). The codec still
/// decodes it, but recovery cannot resume a statement left open with one
/// (Analyze returns Corruption). The other retired values (3, 8, 9) carried
/// nothing recovery reads and are skipped.
inline constexpr uint8_t kRetiredEntryRecord = 2;

/// One past the last valid LogRecordType value (codec validation bound).
inline constexpr uint8_t kNumLogRecordTypes =
    static_cast<uint8_t>(LogRecordType::kExtentDrop) + 1;

struct LogRecord {
  LogRecordType type = LogRecordType::kBegin;
  uint64_t bd_id = 0;
  std::string label;            ///< leg label (LegLabel), table for kBegin
  std::string aux;              ///< key column for kBegin
  std::vector<PageId> pages;    ///< kListMaterialized: scratch pages
  uint64_t count = 0;           ///< kListMaterialized: item count
  int64_t key = 0;              ///< encoded, but no current type sets it
  Rid rid;                      ///< kUpdaterRow
  std::vector<int64_t> values;  ///< kBegin range, row, leaf pairs
};

}  // namespace bulkdel

#endif  // BULKDEL_RECOVERY_LOG_RECORD_H_
