#ifndef BULKDEL_CORE_CATALOG_H_
#define BULKDEL_CORE_CATALOG_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "storage/buffer_pool.h"
#include "table/heap_table.h"
#include "table/schema.h"
#include "txn/side_file.h"
#include "util/result.h"

namespace bulkdel {

/// One index of a table, with its concurrency state.
struct IndexDef {
  std::string name;  ///< "<table>.<column>"
  int column = -1;
  IndexOptions options;
  /// The table is physically ordered by this index's key column.
  bool clustered = false;
  std::unique_ptr<BTree> tree;
  std::unique_ptr<IndexConcurrencyState> cc =
      std::make_unique<IndexConcurrencyState>();
};

/// One table plus its indices.
struct TableDef {
  std::string name;
  std::unique_ptr<Schema> schema;
  std::unique_ptr<HeapTable> table;
  std::vector<std::unique_ptr<IndexDef>> indices;
  /// Serializes heap mutations from concurrent updaters.
  std::mutex heap_latch;

  IndexDef* FindIndexOnColumn(int column) {
    for (auto& index : indices) {
      if (index->column == column) return index.get();
    }
    return nullptr;
  }
};

/// Referential action when a referenced parent row is deleted.
enum class FkAction : uint8_t {
  kRestrict,  ///< refuse the delete while references exist
  kCascade,   ///< bulk delete the referencing child rows too
};

/// FOREIGN KEY (child.column) REFERENCES parent(column).
///
/// The paper treats referential integrity as part of vertical processing:
/// constraints are checked set-at-a-time "as early as possible and before
/// deleting records from the table and the indices so that no work needs to
/// be undone if an integrity constraint fails" (§2.1/§2.2).
struct ForeignKeyDef {
  std::string child_table;
  int child_column = -1;
  std::string parent_table;
  int parent_column = -1;
  FkAction action = FkAction::kRestrict;

  std::string Name() const {
    return child_table + "." + std::to_string(child_column) + "->" +
           parent_table + "." + std::to_string(parent_column);
  }
};

/// Persistent catalog of tables, indices and foreign keys, serialized into a
/// single page so the database can be reopened (or crash-recovered) from
/// disk.
class Catalog {
 public:
  explicit Catalog(BufferPool* pool) : pool_(pool) {}

  /// Allocates and formats the catalog page (for a fresh database; this must
  /// be the very first page allocation so the page id is well known).
  Status Format();

  /// Loads all definitions from `catalog_page` and reopens the structures.
  Status Load(PageId catalog_page);

  /// Serializes all definitions to the catalog page.
  Status Persist();

  PageId catalog_page() const { return catalog_page_; }

  Result<TableDef*> CreateTable(const std::string& name, const Schema& schema);
  Result<IndexDef*> CreateIndex(const std::string& table_name,
                                const std::string& column_name,
                                IndexOptions options, bool clustered);
  TableDef* GetTable(const std::string& name);
  IndexDef* GetIndex(const std::string& table_name,
                     const std::string& column_name);
  /// Detaches an index definition and hands it to the caller, which drops
  /// the tree and then persists the catalog.
  Result<std::unique_ptr<IndexDef>> RemoveIndex(
      const std::string& table_name, const std::string& column_name);

  std::vector<TableDef*> tables();

  /// Registers FOREIGN KEY child(column) REFERENCES parent(column).
  /// The parent column must carry a unique index (the usual PK case) so
  /// existence checks have an access path.
  Status AddForeignKey(const std::string& child_table,
                       const std::string& child_column,
                       const std::string& parent_table,
                       const std::string& parent_column, FkAction action);

  const std::vector<ForeignKeyDef>& foreign_keys() const {
    return foreign_keys_;
  }
  /// FKs whose child side is `child_table`.
  std::vector<const ForeignKeyDef*> ForeignKeysOf(
      const std::string& child_table) const;

  /// Drops all in-memory definitions (crash simulation) without touching
  /// disk; call Load() afterwards to reopen.
  void ResetInMemory() { tables_.clear(); }

 private:
  BufferPool* pool_;
  PageId catalog_page_ = kInvalidPageId;
  std::vector<std::unique_ptr<TableDef>> tables_;
  std::vector<ForeignKeyDef> foreign_keys_;
};

}  // namespace bulkdel

#endif  // BULKDEL_CORE_CATALOG_H_
