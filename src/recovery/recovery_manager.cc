#include "recovery/recovery_manager.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/database.h"
#include "core/executors.h"

namespace bulkdel {

namespace {

/// Log analysis: reassembles the state of every bulk delete that began but
/// never logged kEnd — its legs under its bd_id. Cursor-based:
/// visits the durable log in place via LogManager::ScanDurable instead of
/// copying it (the copy was O(log) per crash-sweep case).
Result<std::map<uint64_t, RecoveredBulkDelete>> Analyze(const LogManager& log) {
  std::map<uint64_t, RecoveredBulkDelete> open;
  std::set<uint64_t> ended;
  Status scan = log.ScanDurable([&](const LogRecord& r) {
    if (r.type == LogRecordType::kEnd) {
      ended.insert(r.bd_id);
      open.erase(r.bd_id);
      return Status::OK();
    }
    if (ended.count(r.bd_id) > 0) return Status::OK();
    RecoveredBulkDelete& state = open[r.bd_id];
    state.bd_id = r.bd_id;
    switch (r.type) {
      case LogRecordType::kBegin: {
        RecoveredLeg& leg = state.legs.emplace_back();
        leg.table = r.label;
        leg.key_column = r.aux;
        state.legs_expected = r.count;
        // A non-empty values field marks a range-predicate leg: the bounds
        // ride in the Begin record instead of an input-keys list.
        if (r.values.size() >= 2) {
          leg.is_range = true;
          leg.range_lo = r.values[0];
          leg.range_hi = r.values[1];
        }
        return Status::OK();
      }
      case LogRecordType::kCommit:
        state.committed = true;
        return Status::OK();
      case LogRecordType::kSideFileSpill:
        // Scratch pages backing a spilled side-file chunk; the ops they
        // held are re-derived from kUpdaterRow records, so recovery only
        // needs to reclaim the pages (after the resumed run's End record).
        state.sidefile_pages.insert(state.sidefile_pages.end(),
                                    r.pages.begin(), r.pages.end());
        return Status::OK();
      case LogRecordType::kSideFileAppend:
      case LogRecordType::kSideFileDrain:
        return Status::OK();  // diagnostics only
      default:
        break;
    }
    if (r.type == LogRecordType::kUpdaterRow) {
      // §3.1 concurrent-updater DML, logged before the mutation and labelled
      // with its table; count encodes the op kind (1 = insert, 0 = delete).
      // Replayed (in statement order, idempotently) by the resumed run's
      // finalize, once per table. DML on a table the statement does not
      // delete from is not covered by its off-line window: nothing to replay.
      auto leg = std::find_if(
          state.legs.begin(), state.legs.end(),
          [&](const RecoveredLeg& l) { return l.table == r.label; });
      if (leg != state.legs.end()) {
        leg->updater_ops.push_back({r.count == 1, r.rid, r.values});
      }
      return Status::OK();
    }
    // Every other record belongs to one leg and carries the leg's id, which
    // its kBegin (earlier in the log) declared. A record naming no leg is a
    // log this build cannot resume (an older label format, or damage):
    // abandoning the statement would leave it half-applied.
    auto [leg_id, name] = SplitLegLabel(r.label);
    RecoveredLeg* leg = state.FindLeg(leg_id);
    if (leg == nullptr) {
      return Status::Corruption("bulk delete " + std::to_string(r.bd_id) +
                                ": log record '" + r.label +
                                "' names no leg of the statement");
    }
    switch (r.type) {
      case LogRecordType::kListMaterialized: {
        RecoveredLeg::List list;
        list.pages = r.pages;
        list.count = r.count;
        leg->lists[name] = std::move(list);
        break;
      }
      case LogRecordType::kEntryDeleted:
        // Only the key-index phase logs entry WAL records; entries removed
        // before that phase's checkpoint are superseded by the "rids" list.
        if (leg->phases_done.count(name) == 0) {
          leg->wal_index_entries.emplace_back(r.key, r.rid);
        }
        break;
      case LogRecordType::kPhaseDone:
        leg->phases_done.insert(name);
        break;
      case LogRecordType::kRangeLeafRun:
        // One dropped leaf of the range leaf-run pass: its (key, packed-rid)
        // pairs stand in for the kEntryDeleted records the per-entry path
        // would have written. Superseded by the key phase's checkpoint
        // (whose "rids" list covers every located RID).
        if (leg->phases_done.count(name) == 0) {
          for (size_t i = 0; i + 1 < r.values.size(); i += 2) {
            leg->wal_index_entries.emplace_back(
                r.values[i],
                Rid::Unpack(static_cast<uint64_t>(r.values[i + 1])));
          }
        }
        // The leaf's page free was deferred past the End record (which was
        // never reached), so the resumed finalize must reclaim it —
        // collected unconditionally, like extent pages.
        leg->leaf_pages.insert(leg->leaf_pages.end(), r.pages.begin(),
                               r.pages.end());
        break;
      case LogRecordType::kExtentDrop:
        // Heap pages detached (or about to be detached) by the extent-drop
        // pass. Collected unconditionally: the pages are freed only by the
        // resumed run's finalize, and re-detaching is idempotent.
        leg->extent_pages.insert(leg->extent_pages.end(), r.pages.begin(),
                                 r.pages.end());
        break;
      default:
        break;
    }
    return Status::OK();
  });
  BULKDEL_RETURN_IF_ERROR(scan);
  return open;
}

/// True once the statement's envelope opening is durable: every leg's
/// kBegin and input-keys list. Before that no page write happened (the
/// passes start after the opening's log sync), so the statement left no
/// trace.
bool EnvelopeOpened(const RecoveredBulkDelete& state) {
  if (state.legs.empty() || state.legs.size() < state.legs_expected) {
    return false;
  }
  for (const RecoveredLeg& leg : state.legs) {
    if (leg.lists.count("input-keys") == 0) return false;
  }
  return true;
}
}  // namespace

Status RecoverDatabase(Database* db) {
  // A crash during a log flush can leave a half-written trailing frame whose
  // CRC does not verify; the restart scan stops there and truncates, so the
  // log ends at the last fully durable record.
  db->log().DropTornTail();
  BULKDEL_ASSIGN_OR_RETURN(auto open, Analyze(db->log()));
  for (auto& [bd_id, state] : open) {
    if (!EnvelopeOpened(state)) {
      LogRecord end;
      end.type = LogRecordType::kEnd;
      end.bd_id = bd_id;
      db->log().Append(std::move(end));
      db->log().Sync();
      continue;
    }
    // Roll the whole statement — every leg — forward to completion (paper
    // §3.2: a bulk deletion in progress at the crash is finished, not
    // rolled back).
    BULKDEL_RETURN_IF_ERROR(ResumeVertical(db, state).status());
    // The cached counts of the touched structures may predate the crash;
    // re-derive them from the data, once per table.
    std::set<std::string> recounted;
    for (const RecoveredLeg& leg : state.legs) {
      TableDef* table = db->GetTable(leg.table);
      if (table == nullptr || !recounted.insert(leg.table).second) continue;
      BULKDEL_RETURN_IF_ERROR(table->table->RecountFromScan());
      for (auto& index : table->indices) {
        BULKDEL_RETURN_IF_ERROR(index->tree->RecountFromScan());
        // Direct propagation: a crash between an updater's marked insert
        // and BringOnline's cleanup pass leaves stale kEntryUndeletable
        // markers; with the crash the off-line window is over, so sweep
        // them here (idempotent leaf pass).
        BULKDEL_RETURN_IF_ERROR(index->tree->ClearUndeletableFlags());
      }
    }
  }
  db->log().TruncateCompleted();
  return db->Checkpoint();
}

}  // namespace bulkdel
