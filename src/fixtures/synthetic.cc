#include "fixtures/synthetic.h"

#include <map>
#include <random>
#include <string>
#include <vector>

namespace ufilter::fixtures {

using relational::Database;
using relational::DatabaseSchema;
using relational::DeletePolicy;
using relational::TableSchema;

namespace {

std::string T(int i) { return "t" + std::to_string(i); }
std::string K(int i) { return "k" + std::to_string(i); }
std::string V(int i) { return "v" + std::to_string(i); }
std::string P(int i) { return "p" + std::to_string(i); }

}  // namespace

DatabaseSchema MakeChainSchema(int depth, DeletePolicy policy) {
  DatabaseSchema schema;
  for (int i = 0; i < depth; ++i) {
    TableSchema table(T(i));
    table.AddColumn(K(i), ValueType::kInt, true)
        .AddColumn(V(i), ValueType::kString)
        .SetPrimaryKey({K(i)});
    if (i > 0) {
      table.AddColumn(P(i), ValueType::kInt);
      table.AddForeignKey({{P(i)}, T(i - 1), {K(i - 1)}, policy});
    }
    (void)schema.AddTable(std::move(table));
  }
  return schema;
}

namespace {

// Seeds every level with `rows_per_level` rows; row r of level i > 0
// references row parent(r) of level i - 1.
template <typename Parent>
Status PopulateLevels(Database* db, int depth, int rows_per_level,
                      Parent parent) {
  for (int i = 0; i < depth; ++i) {
    for (int r = 0; r < rows_per_level; ++r) {
      relational::Row row;
      row.push_back(Value::Int(r));
      row.push_back(Value::String("level" + std::to_string(i) + "_row" +
                                  std::to_string(r)));
      if (i > 0) row.push_back(Value::Int(parent(r)));
      UFILTER_RETURN_NOT_OK(db->Insert(T(i), std::move(row)).status());
    }
  }
  db->Checkpoint();
  return Status::OK();
}

}  // namespace

Status PopulateChain(Database* db, int depth, int rows_per_level) {
  return PopulateLevels(db, depth, rows_per_level,
                        [rows_per_level](int r) { return r % rows_per_level; });
}

Result<std::unique_ptr<Database>> MakeFanoutChainDatabase(
    int depth, int rows_per_level, int children_per_parent,
    DeletePolicy policy) {
  UFILTER_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           Database::Create(MakeChainSchema(depth, policy)));
  UFILTER_RETURN_NOT_OK(PopulateLevels(
      db.get(), depth, rows_per_level,
      [children_per_parent](int r) { return r / children_per_parent; }));
  return db;
}

Result<std::unique_ptr<Database>> MakeChainDatabase(int depth,
                                                    int rows_per_level,
                                                    DeletePolicy policy) {
  UFILTER_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           Database::Create(MakeChainSchema(depth, policy)));
  UFILTER_RETURN_NOT_OK(PopulateChain(db.get(), depth, rows_per_level));
  return db;
}

Status ApplyChainBatch(Database* db, int depth, int rows_per_level,
                       uint32_t seed, int index) {
  // The op stream must be a pure function of (seed, index): the crash fuzz
  // replays exactly the batches whose commit records survived, so nothing
  // here may read database state to decide what to do.
  std::mt19937 rng(seed + 0x9e3779b9u * static_cast<uint32_t>(index + 1));
  const int leaf = depth - 1;
  const std::string table = T(leaf);
  const int ops = 1 + static_cast<int>(rng() % 4);
  Database::WriterGuard guard(db);
  for (int j = 0; j < ops; ++j) {
    const std::string color =
        "c" + std::to_string(rng() % 7);  // small palette => deletes hit
    // Op 0 is always an insert: a batch of nothing but zero-victim updates
    // or deletes would leave the guard clean, publish no epoch and append
    // no WAL record — breaking the crash fuzz's batch <-> epoch mapping.
    // One guaranteed-effective op per batch keeps it bijective.
    switch (j == 0 ? 1 : rng() % 3) {
      case 0: {  // Recolor one seeded-or-surviving leaf by key.
        const int64_t key = static_cast<int64_t>(rng() % rows_per_level);
        UFILTER_RETURN_NOT_OK(
            db->UpdateWhere(table, {{V(leaf), Value::String(color)}},
                            {{K(leaf), CompareOp::kEq,
                              Value::Int(key)}})
                .status());
        break;
      }
      case 1: {  // Insert a batch-unique leaf (keys never collide: each
                 // batch owns the range [1e6 + index*8, 1e6 + index*8 + 7]).
        relational::Row row;
        row.push_back(Value::Int(1'000'000 + static_cast<int64_t>(index) * 8 +
                                 j));
        row.push_back(Value::String(color));
        if (depth > 1)
          row.push_back(Value::Int(static_cast<int64_t>(rng()) %
                                   rows_per_level));
        UFILTER_RETURN_NOT_OK(db->Insert(table, std::move(row)).status());
        break;
      }
      default: {  // Delete every leaf currently wearing `color` (leaf level
                  // => no cascade fan-out; zero victims is fine).
        UFILTER_RETURN_NOT_OK(
            db->DeleteWhere(table, {{V(leaf), CompareOp::kEq,
                                     Value::String(color)}})
                .status());
        break;
      }
    }
  }
  db->Checkpoint();  // Seal the redo + drop the undo before publishing.
  return Status::OK();
}

std::string ChainViewQuery(int depth) {
  // Innermost-out construction of nested FLWRs.
  std::string inner;
  for (int i = depth - 1; i >= 0; --i) {
    std::string flwr = "FOR $x" + std::to_string(i) +
                       " IN document(\"default.xml\")/" + T(i) + "/row\n";
    if (i > 0) {
      flwr += "WHERE ($x" + std::to_string(i) + "/" + P(i) + " = $x" +
              std::to_string(i - 1) + "/" + K(i - 1) + ")\n";
    }
    flwr += "RETURN {\n<e" + std::to_string(i) + "> $x" + std::to_string(i) +
            "/" + K(i) + ", $x" + std::to_string(i) + "/" + V(i);
    if (!inner.empty()) flwr += ",\n" + inner;
    flwr += "\n</e" + std::to_string(i) + ">\n}";
    inner = flwr;
  }
  return "<Chain>\n" + inner + "\n</Chain>";
}

namespace {

/// FOR clause binding $root and $e0..$e<level>, shared by the update
/// builders below.
std::string ChainForClause(int level) {
  std::string stmt = "FOR $root IN document(\"V.xml\")";
  std::string parent = "root";
  for (int i = 0; i <= level; ++i) {
    stmt += ",\n    $e" + std::to_string(i) + " IN $" + parent + "/e" +
            std::to_string(i);
    parent = "e" + std::to_string(i);
  }
  return stmt;
}

std::string ChainAnchor(int level) {
  return level == 0 ? "root" : "e" + std::to_string(level - 1);
}

}  // namespace

std::string ChainDeleteUpdate(int level, int64_t key) {
  std::string stmt = ChainForClause(level);
  stmt += "\nWHERE $e" + std::to_string(level) + "/k" +
          std::to_string(level) + "/text() = " + std::to_string(key);
  stmt += "\nUPDATE $" + ChainAnchor(level) + " {\n  DELETE $e" +
          std::to_string(level) + "\n}";
  return stmt;
}

std::string ChainDeleteByValueUpdate(int level, const std::string& value) {
  std::string stmt = ChainForClause(level);
  stmt += "\nWHERE $e" + std::to_string(level) + "/v" +
          std::to_string(level) + "/text() = \"" + value + "\"";
  stmt += "\nUPDATE $" + ChainAnchor(level) + " {\n  DELETE $e" +
          std::to_string(level) + "\n}";
  return stmt;
}

std::string ChainReplaceUpdate(int level, int64_t key,
                               const std::string& value) {
  const std::string l = std::to_string(level);
  std::string stmt = ChainForClause(level);
  stmt += "\nWHERE $e" + l + "/k" + l + "/text() = " + std::to_string(key);
  stmt += "\nUPDATE $" + ChainAnchor(level) + " {\n  REPLACE $e" + l + "/v" +
          l + " WITH <v" + l + ">" + value + "</v" + l + ">\n}";
  return stmt;
}

}  // namespace ufilter::fixtures
