// Columnar projection of one immutable table version, and the vectorized
// predicate kernels that run over it.
//
// Row-store tables (std::vector<Value> rows behind std::optional slots) pay
// per-row variant dispatch and heap chasing on every full-scan predicate and
// every hash-join build — exactly the probe shapes U-Filter's anchor /
// victim / wide checks issue constantly. Since PR 5 every check reads an
// *immutable* epoch-stamped table version, which is the ideal substrate for
// a column cache: a ColumnarTable is built once (lazily, on the first
// snapshot-pinned scan) from a published Table version and is then shared by
// every reader of that version; it dies with the version when epoch GC
// retires it (the cache lives on the Table object, and copy-on-write clones
// deliberately do not inherit it — writers never see columns). Row pages
// are shared between versions, but the columns are not: every published
// version builds its own cache from all of its rows.
//
// Layout: one typed contiguous array per column — int64_t for INT columns,
// double for DOUBLE columns (INT values stored in DOUBLE columns are
// widened, which is lossless for predicate purposes: the engine's numeric
// comparisons and Value::Hash are AsNumber()/double-based), and a string
// pool (one concatenated byte buffer + n+1 offsets) for STRING columns —
// plus a packed null bitmap per column, elided entirely when the column has
// no NULLs.
//
// Execution model: a scan starts from the full selection vector (all live
// row positions) and applies each conjunct as a tight typed loop that
// compacts the selection vector in place — no virtual dispatch, no Value
// materialization, branchless keep/drop — so a conjunction is "fused" by
// filtering the shrinking vector predicate by predicate. Only positions that
// survive every predicate are translated back to RowIds, and row values are
// then fetched from the row store (the Table is still pinned by the same
// snapshot), which keeps results byte-identical to the row path.
#ifndef UFILTER_RELATIONAL_COLUMNAR_H_
#define UFILTER_RELATIONAL_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "relational/database.h"

namespace ufilter::relational {

/// \brief Per-column typed arrays + null bitmaps for one immutable Table.
///
/// Positions (uint32_t) index the live rows in slot order; row_ids() maps a
/// position back to the engine RowId. Immutable after Build; safe to share
/// across threads with no lock.
class ColumnarTable {
 public:
  /// A selection vector: positions into [0, row_count()), strictly
  /// increasing. Filters compact it in place.
  using Sel = std::vector<uint32_t>;

  /// Builds the columnar projection of `table` (all live rows, slot order).
  /// The table must not be mutated afterwards — callers only build from
  /// published (snapshot-pinned) versions, which copy-on-write protects.
  static std::shared_ptr<const ColumnarTable> Build(const Table& table);

  size_t row_count() const { return row_ids_.size(); }
  /// Position -> RowId map (live rows in slot order).
  const std::vector<RowId>& row_ids() const { return row_ids_; }

  /// Resets `sel` to the full selection [0, row_count()).
  void SelectAll(Sel* sel) const;

  /// Filters `sel` in place, keeping positions whose `column` value
  /// satisfies `column <op> literal` under exact EvalCompare semantics:
  /// NULL on either side never matches, numerics compare as double
  /// (AsNumber), and cross-type comparisons follow the total-order ranks
  /// (numbers sort below strings), same as the row path.
  void FilterColumn(int column, CompareOp op, const Value& literal,
                    Sel* sel) const;

  /// True when `column` is NULL at `pos`.
  bool IsNull(int column, uint32_t pos) const {
    const Column& c = columns_[static_cast<size_t>(column)];
    return c.has_nulls && GetBit(c.nulls, pos);
  }

  /// Hash-join build over typed storage: appends (Value::Hash-consistent
  /// hash, RowId) to `out` for every non-NULL row of `column`, in slot
  /// order — the columnar replacement for the per-row GetRow + Value::Hash
  /// build loop.
  void HashJoinBuild(int column,
                     std::unordered_multimap<size_t, RowId>* out) const;

 private:
  struct Column {
    ValueType type = ValueType::kString;  ///< storage kind (never kNull)
    std::vector<int64_t> i64;             ///< kInt
    std::vector<double> f64;              ///< kDouble (ints widened)
    std::string pool;                     ///< kString: concatenated bytes
    std::vector<uint32_t> str_offsets;    ///< kString: n+1 pool offsets
    std::vector<uint64_t> nulls;          ///< packed bitmap; empty if none
    bool has_nulls = false;
  };

  static bool GetBit(const std::vector<uint64_t>& bits, uint32_t pos) {
    return (bits[pos >> 6] >> (pos & 63)) & 1;
  }

  std::vector<RowId> row_ids_;
  std::vector<Column> columns_;
};

}  // namespace ufilter::relational

#endif  // UFILTER_RELATIONAL_COLUMNAR_H_
