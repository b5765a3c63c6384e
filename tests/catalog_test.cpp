#include "core/catalog.h"

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"

namespace bulkdel {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : pool_(&disk_, 128 * kPageSize) {}

  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(CatalogTest, FormatAndReload) {
  Catalog catalog(&pool_);
  ASSERT_TRUE(catalog.Format().ok());
  PageId page = catalog.catalog_page();

  Schema schema = *Schema::PaperStyle(3, 64);
  auto table = catalog.CreateTable("R", schema);
  ASSERT_TRUE(table.ok());
  IndexOptions options;
  options.unique = true;
  options.max_inner_entries = 100;
  ASSERT_TRUE(catalog.CreateIndex("R", "A", options, true).ok());
  ASSERT_TRUE(catalog.CreateIndex("R", "B", {}, false).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());

  Catalog reloaded(&pool_);
  ASSERT_TRUE(reloaded.Load(page).ok());
  TableDef* r = reloaded.GetTable("R");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->schema->num_columns(), 4u);  // A, B, C, PAD
  EXPECT_EQ(r->schema->tuple_size(), 64u);
  ASSERT_EQ(r->indices.size(), 2u);
  IndexDef* a = reloaded.GetIndex("R", "A");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->options.unique);
  EXPECT_TRUE(a->clustered);
  EXPECT_EQ(a->options.max_inner_entries, 100);
  IndexDef* b = reloaded.GetIndex("R", "B");
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->options.unique);
}

TEST_F(CatalogTest, DuplicateAndMissingNames) {
  Catalog catalog(&pool_);
  ASSERT_TRUE(catalog.Format().ok());
  Schema schema = *Schema::PaperStyle(2, 0);
  ASSERT_TRUE(catalog.CreateTable("T", schema).ok());
  EXPECT_EQ(catalog.CreateTable("T", schema).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.CreateIndex("missing", "A", {}, false)
                  .status()
                  .IsNotFound());
  ASSERT_TRUE(catalog.CreateIndex("T", "A", {}, false).ok());
  EXPECT_EQ(catalog.CreateIndex("T", "A", {}, false).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.RemoveIndex("T", "B").status().IsNotFound());
  ASSERT_TRUE(catalog.RemoveIndex("T", "A").ok());
  EXPECT_EQ(catalog.GetIndex("T", "A"), nullptr);
}

TEST_F(CatalogTest, NonIntColumnsNotIndexable) {
  Catalog catalog(&pool_);
  ASSERT_TRUE(catalog.Format().ok());
  Schema schema = *Schema::PaperStyle(2, 64);  // has a PAD column
  ASSERT_TRUE(catalog.CreateTable("T", schema).ok());
  EXPECT_EQ(catalog.CreateIndex("T", "PAD", {}, false).status().code(),
            StatusCode::kNotSupported);
}

TEST_F(CatalogTest, ManyTablesUntilPageOverflows) {
  Catalog catalog(&pool_);
  ASSERT_TRUE(catalog.Format().ok());
  Schema schema = *Schema::PaperStyle(2, 0);
  // The catalog lives on one page; creation must fail cleanly (not corrupt)
  // once serialization overflows.
  Status last = Status::OK();
  int created = 0;
  for (int i = 0; i < 500 && last.ok(); ++i) {
    last = catalog.CreateTable("table_" + std::to_string(i), schema).status();
    if (last.ok()) ++created;
  }
  if (!last.ok()) {
    EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
    EXPECT_GT(created, 20);  // plenty of room for realistic catalogs
  }
}

TEST_F(CatalogTest, SchemaRoundTripAllColumnTypes) {
  Catalog catalog(&pool_);
  ASSERT_TRUE(catalog.Format().ok());
  std::vector<Column> cols = {Column::Int64("id"),
                              Column::FixedBytes("blob", 100),
                              Column::Int64("value")};
  ASSERT_TRUE(catalog.CreateTable("X", Schema{cols}).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());
  Catalog reloaded(&pool_);
  ASSERT_TRUE(reloaded.Load(catalog.catalog_page()).ok());
  TableDef* x = reloaded.GetTable("X");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->schema->column(1).type, ColumnType::kFixedBytes);
  EXPECT_EQ(x->schema->column(1).size, 100u);
  EXPECT_EQ(x->schema->tuple_size(), 116u);
}

}  // namespace
}  // namespace bulkdel
