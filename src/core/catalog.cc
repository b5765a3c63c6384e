#include "core/catalog.h"

#include <cstring>

#include "table/heap_page.h"
#include "util/coding.h"

namespace bulkdel {

namespace {
constexpr uint32_t kCatalogMagic = 0x43415431;  // "CAT1"

/// Bounds-checked sequential writer/reader over the catalog page.
class PageWriter {
 public:
  explicit PageWriter(char* data) : data_(data) {}

  Status U8(uint8_t v) { return Raw(&v, 1); }
  Status U16(uint16_t v) {
    char b[2];
    StoreU16(b, v);
    return Raw(b, 2);
  }
  Status U32(uint32_t v) {
    char b[4];
    StoreU32(b, v);
    return Raw(b, 4);
  }
  Status Str(const std::string& s) {
    if (s.size() > 255) return Status::InvalidArgument("name too long");
    BULKDEL_RETURN_IF_ERROR(U8(static_cast<uint8_t>(s.size())));
    return Raw(s.data(), s.size());
  }

 private:
  Status Raw(const void* src, size_t n) {
    if (pos_ + n > kPageSize) {
      return Status::ResourceExhausted("catalog page overflow");
    }
    std::memcpy(data_ + pos_, src, n);
    pos_ += n;
    return Status::OK();
  }

  char* data_;
  size_t pos_ = 0;
};

class PageReader {
 public:
  explicit PageReader(const char* data) : data_(data) {}

  Result<uint8_t> U8() {
    BULKDEL_RETURN_IF_ERROR(Check(1));
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint16_t> U16() {
    BULKDEL_RETURN_IF_ERROR(Check(2));
    uint16_t v = LoadU16(data_ + pos_);
    pos_ += 2;
    return v;
  }
  Result<uint32_t> U32() {
    BULKDEL_RETURN_IF_ERROR(Check(4));
    uint32_t v = LoadU32(data_ + pos_);
    pos_ += 4;
    return v;
  }
  Result<std::string> Str() {
    BULKDEL_ASSIGN_OR_RETURN(uint8_t n, U8());
    BULKDEL_RETURN_IF_ERROR(Check(n));
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

 private:
  Status Check(size_t n) const {
    if (pos_ + n > kPageSize) {
      return Status::Corruption("catalog page truncated");
    }
    return Status::OK();
  }

  const char* data_;
  size_t pos_ = 0;
};
}  // namespace

Status Catalog::Format() {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->NewPage());
  catalog_page_ = page.page_id();
  page.MarkDirty();
  page.Release();
  return Persist();
}

Status Catalog::Persist() {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(catalog_page_));
  std::memset(page.data(), 0, kPageSize);
  PageWriter w(page.data());
  BULKDEL_RETURN_IF_ERROR(w.U32(kCatalogMagic));
  BULKDEL_RETURN_IF_ERROR(w.U16(static_cast<uint16_t>(tables_.size())));
  for (const auto& t : tables_) {
    BULKDEL_RETURN_IF_ERROR(w.Str(t->name));
    BULKDEL_RETURN_IF_ERROR(w.U32(t->table->header_page()));
    BULKDEL_RETURN_IF_ERROR(
        w.U16(static_cast<uint16_t>(t->schema->num_columns())));
    for (const Column& c : t->schema->columns()) {
      BULKDEL_RETURN_IF_ERROR(w.Str(c.name));
      BULKDEL_RETURN_IF_ERROR(w.U8(static_cast<uint8_t>(c.type)));
      BULKDEL_RETURN_IF_ERROR(w.U32(c.size));
    }
    BULKDEL_RETURN_IF_ERROR(w.U16(static_cast<uint16_t>(t->indices.size())));
    for (const auto& index : t->indices) {
      BULKDEL_RETURN_IF_ERROR(w.Str(index->name));
      BULKDEL_RETURN_IF_ERROR(w.U32(index->tree->meta_page()));
      BULKDEL_RETURN_IF_ERROR(w.U16(static_cast<uint16_t>(index->column)));
      uint8_t flags = (index->options.unique ? 1 : 0) |
                      (index->clustered ? 2 : 0);
      BULKDEL_RETURN_IF_ERROR(w.U8(flags));
      BULKDEL_RETURN_IF_ERROR(w.U16(index->options.max_leaf_entries));
      BULKDEL_RETURN_IF_ERROR(w.U16(index->options.max_inner_entries));
      BULKDEL_RETURN_IF_ERROR(
          w.U16(static_cast<uint16_t>(index->options.priority)));
    }
  }
  BULKDEL_RETURN_IF_ERROR(
      w.U16(static_cast<uint16_t>(foreign_keys_.size())));
  for (const ForeignKeyDef& fk : foreign_keys_) {
    BULKDEL_RETURN_IF_ERROR(w.Str(fk.child_table));
    BULKDEL_RETURN_IF_ERROR(w.U16(static_cast<uint16_t>(fk.child_column)));
    BULKDEL_RETURN_IF_ERROR(w.Str(fk.parent_table));
    BULKDEL_RETURN_IF_ERROR(w.U16(static_cast<uint16_t>(fk.parent_column)));
    BULKDEL_RETURN_IF_ERROR(w.U8(static_cast<uint8_t>(fk.action)));
  }
  page.MarkDirty();
  return Status::OK();
}

Status Catalog::Load(PageId catalog_page) {
  catalog_page_ = catalog_page;
  tables_.clear();
  BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(catalog_page_));
  PageReader r(page.data());
  BULKDEL_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kCatalogMagic) {
    return Status::Corruption("bad catalog magic");
  }
  BULKDEL_ASSIGN_OR_RETURN(uint16_t n_tables, r.U16());
  for (uint16_t ti = 0; ti < n_tables; ++ti) {
    auto t = std::make_unique<TableDef>();
    BULKDEL_ASSIGN_OR_RETURN(t->name, r.Str());
    BULKDEL_ASSIGN_OR_RETURN(uint32_t header_page, r.U32());
    BULKDEL_ASSIGN_OR_RETURN(uint16_t n_cols, r.U16());
    std::vector<Column> cols;
    for (uint16_t ci = 0; ci < n_cols; ++ci) {
      Column c;
      BULKDEL_ASSIGN_OR_RETURN(c.name, r.Str());
      BULKDEL_ASSIGN_OR_RETURN(uint8_t type, r.U8());
      c.type = static_cast<ColumnType>(type);
      BULKDEL_ASSIGN_OR_RETURN(c.size, r.U32());
      cols.push_back(std::move(c));
    }
    t->schema = std::make_unique<Schema>(std::move(cols));
    BULKDEL_ASSIGN_OR_RETURN(
        HeapTable table, HeapTable::Open(pool_, *t->schema, header_page));
    t->table = std::make_unique<HeapTable>(std::move(table));
    BULKDEL_ASSIGN_OR_RETURN(uint16_t n_indices, r.U16());
    for (uint16_t ii = 0; ii < n_indices; ++ii) {
      auto index = std::make_unique<IndexDef>();
      BULKDEL_ASSIGN_OR_RETURN(index->name, r.Str());
      BULKDEL_ASSIGN_OR_RETURN(uint32_t meta_page, r.U32());
      BULKDEL_ASSIGN_OR_RETURN(uint16_t column, r.U16());
      index->column = column;
      BULKDEL_ASSIGN_OR_RETURN(uint8_t flags, r.U8());
      index->options.unique = (flags & 1) != 0;
      index->clustered = (flags & 2) != 0;
      BULKDEL_ASSIGN_OR_RETURN(index->options.max_leaf_entries, r.U16());
      BULKDEL_ASSIGN_OR_RETURN(index->options.max_inner_entries, r.U16());
      BULKDEL_ASSIGN_OR_RETURN(uint16_t priority, r.U16());
      index->options.priority = static_cast<int16_t>(priority);
      BULKDEL_ASSIGN_OR_RETURN(
          BTree tree, BTree::Open(pool_, meta_page, index->options));
      index->tree = std::make_unique<BTree>(std::move(tree));
      t->indices.push_back(std::move(index));
    }
    tables_.push_back(std::move(t));
  }
  foreign_keys_.clear();
  BULKDEL_ASSIGN_OR_RETURN(uint16_t n_fks, r.U16());
  for (uint16_t i = 0; i < n_fks; ++i) {
    ForeignKeyDef fk;
    BULKDEL_ASSIGN_OR_RETURN(fk.child_table, r.Str());
    BULKDEL_ASSIGN_OR_RETURN(uint16_t child_col, r.U16());
    fk.child_column = child_col;
    BULKDEL_ASSIGN_OR_RETURN(fk.parent_table, r.Str());
    BULKDEL_ASSIGN_OR_RETURN(uint16_t parent_col, r.U16());
    fk.parent_column = parent_col;
    BULKDEL_ASSIGN_OR_RETURN(uint8_t action, r.U8());
    fk.action = static_cast<FkAction>(action);
    foreign_keys_.push_back(std::move(fk));
  }
  return Status::OK();
}

Status Catalog::AddForeignKey(const std::string& child_table,
                              const std::string& child_column,
                              const std::string& parent_table,
                              const std::string& parent_column,
                              FkAction action) {
  TableDef* child = GetTable(child_table);
  TableDef* parent = GetTable(parent_table);
  if (child == nullptr || parent == nullptr) {
    return Status::NotFound("foreign key references unknown table");
  }
  ForeignKeyDef fk;
  fk.child_table = child_table;
  fk.child_column = child->schema->FindColumn(child_column);
  fk.parent_table = parent_table;
  fk.parent_column = parent->schema->FindColumn(parent_column);
  fk.action = action;
  if (fk.child_column < 0 || fk.parent_column < 0) {
    return Status::NotFound("foreign key references unknown column");
  }
  IndexDef* parent_index = parent->FindIndexOnColumn(fk.parent_column);
  if (parent_index == nullptr || !parent_index->options.unique) {
    return Status::FailedPrecondition(
        "foreign key parent column must carry a unique index");
  }
  foreign_keys_.push_back(std::move(fk));
  return Persist();
}

std::vector<const ForeignKeyDef*> Catalog::ForeignKeysOf(
    const std::string& child_table) const {
  std::vector<const ForeignKeyDef*> out;
  for (const ForeignKeyDef& fk : foreign_keys_) {
    if (fk.child_table == child_table) out.push_back(&fk);
  }
  return out;
}

Result<TableDef*> Catalog::CreateTable(const std::string& name,
                                       const Schema& schema) {
  if (GetTable(name) != nullptr) {
    return Status::AlreadyExists("table " + name + " exists");
  }
  if (schema.tuple_size() == 0 ||
      HeapPage::CapacityFor(schema.tuple_size()) == 0) {
    return Status::InvalidArgument("tuple size " +
                                   std::to_string(schema.tuple_size()) +
                                   " does not fit a page");
  }
  auto t = std::make_unique<TableDef>();
  t->name = name;
  t->schema = std::make_unique<Schema>(schema);
  BULKDEL_ASSIGN_OR_RETURN(HeapTable table,
                           HeapTable::Create(pool_, *t->schema));
  t->table = std::make_unique<HeapTable>(std::move(table));
  TableDef* raw = t.get();
  tables_.push_back(std::move(t));
  BULKDEL_RETURN_IF_ERROR(Persist());
  return raw;
}

Result<IndexDef*> Catalog::CreateIndex(const std::string& table_name,
                                       const std::string& column_name,
                                       IndexOptions options, bool clustered) {
  TableDef* t = GetTable(table_name);
  if (t == nullptr) return Status::NotFound("no table " + table_name);
  int column = t->schema->FindColumn(column_name);
  if (column < 0) {
    return Status::NotFound("no column " + column_name + " in " + table_name);
  }
  if (t->schema->column(static_cast<size_t>(column)).type !=
      ColumnType::kInt64) {
    return Status::NotSupported("only int64 columns are indexable");
  }
  if (t->FindIndexOnColumn(column) != nullptr) {
    return Status::AlreadyExists("index on " + table_name + "." +
                                 column_name + " exists");
  }
  auto index = std::make_unique<IndexDef>();
  index->name = table_name + "." + column_name;
  index->column = column;
  index->options = options;
  index->clustered = clustered;
  BULKDEL_ASSIGN_OR_RETURN(BTree tree, BTree::Create(pool_, options));
  index->tree = std::make_unique<BTree>(std::move(tree));
  IndexDef* raw = index.get();
  t->indices.push_back(std::move(index));
  BULKDEL_RETURN_IF_ERROR(Persist());
  return raw;
}

TableDef* Catalog::GetTable(const std::string& name) {
  for (auto& t : tables_) {
    if (t->name == name) return t.get();
  }
  return nullptr;
}

IndexDef* Catalog::GetIndex(const std::string& table_name,
                            const std::string& column_name) {
  TableDef* t = GetTable(table_name);
  if (t == nullptr) return nullptr;
  int column = t->schema->FindColumn(column_name);
  if (column < 0) return nullptr;
  return t->FindIndexOnColumn(column);
}

Result<std::unique_ptr<IndexDef>> Catalog::RemoveIndex(
    const std::string& table_name, const std::string& column_name) {
  TableDef* t = GetTable(table_name);
  if (t == nullptr) return Status::NotFound("no table " + table_name);
  for (auto it = t->indices.begin(); it != t->indices.end(); ++it) {
    if ((*it)->name == table_name + "." + column_name) {
      std::unique_ptr<IndexDef> index = std::move(*it);
      t->indices.erase(it);
      return index;
    }
  }
  return Status::NotFound("no index on " + table_name + "." + column_name);
}

std::vector<TableDef*> Catalog::tables() {
  std::vector<TableDef*> out;
  out.reserve(tables_.size());
  for (auto& t : tables_) out.push_back(t.get());
  return out;
}

}  // namespace bulkdel
