// A depth-2 chain history (fixtures::MakeChainSchema(2): t0 <- t1, CASCADE)
// whose tombstones sit where paged table storage is easiest to get wrong:
// a run straddling a page boundary, a fully tombstoned middle page, and a
// fully tombstoned last page. Recovery and replication bootstrap tests
// replay it and compare RowIds and state fingerprints with the source.
#ifndef UFILTER_TESTS_SUPPORT_PAGED_TOMBSTONES_H_
#define UFILTER_TESTS_SUPPORT_PAGED_TOMBSTONES_H_

#include <string>
#include <vector>

#include "relational/database.h"

namespace ufilter::test_support {

inline constexpr int64_t kPage =
    static_cast<int64_t>(relational::Table::kPageSlots);

/// Seeds t0 with 3 pages + 8 rows and t1 with 2 pages (t1 row k -> t0 row
/// k), then commits, one epoch per step:
///  - delete t0 rows [kPage-4, kPage+6]: straddles the page 0/1 boundary
///    and cascades to the same t1 rows;
///  - delete t0 rows [2*kPage, 3*kPage): t0 page 2 fully tombstoned, page 3
///    still live;
///  - delete t1 rows >= kPage: t1's last page fully tombstoned.
inline Status SeedPagedTombstones(relational::Database* db) {
  using relational::Database;
  auto insert = [db](const std::string& table, int64_t k,
                     bool child) -> Status {
    relational::Row row{Value::Int(k), Value::String("r" + std::to_string(k))};
    if (child) row.push_back(Value::Int(k));
    return db->Insert(table, std::move(row)).status();
  };
  {
    Database::WriterGuard guard(db);
    for (int64_t k = 0; k < 3 * kPage + 8; ++k) {
      UFILTER_RETURN_NOT_OK(insert("t0", k, false));
    }
    for (int64_t k = 0; k < 2 * kPage; ++k) {
      UFILTER_RETURN_NOT_OK(insert("t1", k, true));
    }
    db->Checkpoint();
  }
  struct Range {
    const char* table;
    const char* key;
    int64_t lo, hi;  // inclusive
  };
  const Range deletes[] = {{"t0", "k0", kPage - 4, kPage + 6},
                           {"t0", "k0", 2 * kPage, 3 * kPage - 1},
                           {"t1", "k1", kPage, 2 * kPage - 1}};
  for (const Range& r : deletes) {
    Database::WriterGuard guard(db);
    UFILTER_RETURN_NOT_OK(
        db->DeleteWhere(r.table, {{r.key, CompareOp::kGe, Value::Int(r.lo)},
                                  {r.key, CompareOp::kLe, Value::Int(r.hi)}})
            .status());
    db->Checkpoint();
  }
  return Status::OK();
}

/// One more committed epoch after the seed: an insert into each table (t1's
/// lands past its tombstoned last page) and an update on t0's last page.
inline Status AppendAfterTombstones(relational::Database* db) {
  relational::Database::WriterGuard guard(db);
  UFILTER_RETURN_NOT_OK(
      db->Insert("t0", {Value::Int(10 * kPage), Value::String("late")})
          .status());
  UFILTER_RETURN_NOT_OK(db->Insert("t1", {Value::Int(10 * kPage),
                                          Value::String("late"),
                                          Value::Int(0)})
                            .status());
  UFILTER_RETURN_NOT_OK(
      db->UpdateWhere("t0", {{"v0", Value::String("touched")}},
                      {{"k0", CompareOp::kEq, Value::Int(3 * kPage)}})
          .status());
  db->Checkpoint();
  return Status::OK();
}

/// "table:rowid:values" for every live row of the latest published state,
/// in schema then RowId order.
inline std::vector<std::string> LiveRowsById(relational::Database* db) {
  std::vector<std::string> out;
  auto snapshot = db->OpenSnapshot();
  for (const relational::TableSchema& schema : db->schema().tables()) {
    const relational::Table* table = snapshot->FindTable(schema.name());
    for (relational::RowId id : table->AllRowIds()) {
      std::string line = schema.name() + ":" + std::to_string(id) + ":";
      for (const Value& v : *table->GetRow(id)) line += v.ToSqlLiteral() + ",";
      out.push_back(std::move(line));
    }
  }
  return out;
}

}  // namespace ufilter::test_support

#endif  // UFILTER_TESTS_SUPPORT_PAGED_TOMBSTONES_H_
