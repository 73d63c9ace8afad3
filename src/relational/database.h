// In-memory relational database: tables with stable row ids, hash indexes on
// keys, constraint-enforcing insert/delete/update, FK delete policies
// (CASCADE / SET NULL / RESTRICT) and undo-log transactions with rollback.
//
// This is the "data storage / Oracle" box of Fig. 5: the substrate U-Filter
// issues probe queries and translated SQL updates against.
//
// Concurrency model (see docs/ARCHITECTURE.md): base tables are
// multiversioned. Every publish (commit) stamps a monotonically increasing
// commit epoch and freezes the current table versions into an immutable
// DatabaseVersion; `OpenSnapshot` pins the latest published version, and a
// context carrying a pinned Snapshot resolves every base-table read against
// it — no lock is held during probe evaluation, and a concurrent writer
// cannot perturb (or race with) the pinned tables: its first mutation of a
// published table clones the table's page and index-shard pointer vectors,
// and each page (Table::kPageSlots rows), index shard or posting-list node
// it then writes is copied before it is touched (copy-on-write). A point
// write after a publish therefore copies one page plus, per index whose key
// it changes, one shard and one posting node per tree level — never the
// table. Superseded table versions are retired by epoch-based GC
// once no snapshot pins an epoch that could still see them. All *mutable
// scratch* — temp tables and the undo log — lives in an ExecutionContext,
// one per client session. Work counters are relaxed atomics, safe to bump
// from any thread. Writers must still be mutually exclusive with each other
// (the service layer's writer lane); snapshot readers need no exclusion at
// all.
#ifndef UFILTER_RELATIONAL_DATABASE_H_
#define UFILTER_RELATIONAL_DATABASE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "relational/schema.h"

namespace ufilter::relational {

class ColumnarTable;  // relational/columnar.h

/// A tuple. Values are positional, aligned with TableSchema::columns().
using Row = std::vector<Value>;

/// Stable identifier of a row slot within its table (the engine's ROWID).
using RowId = int64_t;

/// Conjunct of a single-table filter: `column <op> literal`.
struct ColumnPredicate {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value literal;

  std::string ToString() const {
    return column + " " + CompareOpSymbol(op) + " " + literal.ToSqlLiteral();
  }
};

/// A monotonically increasing work counter bumped from concurrent check
/// workers. All operations are relaxed: the counters are statistics, not
/// synchronization — the only guarantee needed is that concurrent `++` /
/// `+=` never lose increments (the read-modify-write races the old plain
/// uint64_t fields had).
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(uint64_t v) : v_(v) {}  // NOLINT: implicit by design

  uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  operator uint64_t() const { return load(); }

  RelaxedCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  uint64_t operator++(int) { return v_.fetch_add(1, std::memory_order_relaxed); }
  RelaxedCounter& operator+=(uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  /// Undoes a premature increment (e.g. a submission counted before an
  /// admission-queue push that was then refused).
  RelaxedCounter& operator-=(uint64_t d) {
    v_.fetch_sub(d, std::memory_order_relaxed);
    return *this;
  }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Every engine work counter, declared once: X(field, exported metric
/// name, doc). EngineStats, AtomicEngineStats and the CheckService registry
/// collector are all generated from this list, so adding a counter is one
/// entry here. Benchmarks and tests read the counters to observe the cost
/// asymmetries the paper's figures rely on (index lookups vs. scans).
#define UFILTER_ENGINE_COUNTERS(X)                                           \
  X(rows_scanned, "engine_rows_scanned",                                     \
    "Candidate rows the row executor examined (scans and index probes).")    \
  X(index_lookups, "engine_index_lookups", "Hash-index probes issued.")      \
  X(plans_compiled, "engine_plans_compiled",                                 \
    "Physical plans compiled by the cost-based planner (one per ad-hoc "     \
    "Execute; prepared probes compile once and then only replay).")          \
  X(plan_replays, "engine_plan_replays",                                     \
    "Executions of an already-compiled plan (zero name resolution).")        \
  X(hash_join_builds, "engine_hash_join_builds",                             \
    "One-shot hash tables built for unindexed equi-join sides.")             \
  X(hash_join_probes, "engine_hash_join_probes",                             \
    "Probes served by those hash tables (replaces per-outer-row scans).")    \
  X(columnar_builds, "columnar_builds",                                      \
    "Columnar caches built (one per table version, on its first "            \
    "snapshot-pinned scan or hash-join build; see relational/columnar.h).")  \
  X(columnar_scan_rows, "columnar_scan_rows",                                \
    "Rows fed through vectorized predicate loops or typed hash builds "      \
    "(the columnar counterpart of rows_scanned).")                           \
  X(selection_vector_rows, "selection_vector_rows",                          \
    "Selection-vector entries surviving every fused scan predicate (the "    \
    "rows a vectorized scan actually hands to the join pipeline).")          \
  X(rows_inserted, "engine_rows_inserted", "Base-table rows inserted.")      \
  X(rows_deleted, "engine_rows_deleted", "Base-table rows deleted.")         \
  X(rows_updated, "engine_rows_updated", "Base-table rows updated.")         \
  X(undo_records, "engine_undo_records",                                     \
    "Undo-log records written for rollback of a context's mutations.")       \
  X(queries_executed, "engine_queries_executed",                             \
    "SELECT evaluations issued against the engine (probes included).")      \
  X(batch_queries_executed, "engine_batch_queries_executed",                 \
    "Merged OR-of-predicates probes evaluated (each counts once in "         \
    "queries_executed too).")                                                \
  X(batch_branches_merged, "engine_batch_branches_merged",                   \
    "Probe branches served by merged queries (savings = "                    \
    "batch_branches_merged - batch_queries_executed).")                      \
  X(plan_cache_hits, "plan_cache_hits",                                      \
    "UFilter::Prepare calls answered from the plan cache.")                  \
  X(plan_cache_misses, "plan_cache_misses",                                  \
    "UFilter::Prepare calls that missed the plan cache and compiled.")       \
  X(updates_compiled, "engine_updates_compiled",                             \
    "Full compiles (parse + bind + validate) actually performed.")           \
  X(star_checks, "engine_star_checks",                                       \
    "STAR dynamic-checking runs actually performed.")                        \
  X(snapshots_opened, "mvcc_snapshots_opened",                               \
    "MVCC snapshots pinned via Database::OpenSnapshot.")                     \
  X(versions_retired, "mvcc_versions_retired",                               \
    "Superseded table versions released by epoch-based GC (each one was a "  \
    "copy-on-write clone source that no pinned snapshot can still see).")    \
  X(cow_slots_copied, "mvcc_cow_slots_copied",                               \
    "Slots copied because an older version shares them: row slots of a "     \
    "page (Table::kPageSlots), directory slots plus posting lists of an "    \
    "index shard (also when a split or rehash rebuilds a shared shard), "    \
    "and row ids of a posting node; never the table.")                       \
  X(wal_records, "wal_records",                                              \
    "WAL records appended (one per published commit epoch while durable).")  \
  X(wal_fsyncs, "wal_fsyncs",                                                \
    "fsync(2) calls issued by the WAL writer; with the group-commit policy " \
    "wal_records / wal_fsyncs is the achieved batching factor.")             \
  X(wal_bytes, "wal_bytes", "Bytes appended to the WAL (framing included).")

/// The plain *snapshot* type of the work counters (one uint64_t per
/// UFILTER_ENGINE_COUNTERS entry): `Database::SnapshotWorkCounters()`
/// returns one, `DiffSince` subtracts a baseline. The live counters are an
/// AtomicEngineStats (below) so that concurrent check workers can bump them
/// without data races.
struct EngineStats {
#define UFILTER_ENGINE_FIELD(field, metric, doc) uint64_t field = 0;
  UFILTER_ENGINE_COUNTERS(UFILTER_ENGINE_FIELD)
#undef UFILTER_ENGINE_FIELD

  void Reset() { *this = EngineStats(); }

  /// Field-wise `*this - baseline` (counters are monotonic between resets).
  EngineStats DiffSince(const EngineStats& baseline) const {
    EngineStats d = *this;
#define UFILTER_ENGINE_DIFF(field, metric, doc) d.field -= baseline.field;
    UFILTER_ENGINE_COUNTERS(UFILTER_ENGINE_DIFF)
#undef UFILTER_ENGINE_DIFF
    return d;
  }
};

/// The live counters: same fields as EngineStats but each one a relaxed
/// atomic. Every `stats.field++` / `+= n` call site compiles unchanged; a
/// consistent plain-value copy is taken with Snapshot().
struct AtomicEngineStats {
#define UFILTER_ENGINE_FIELD(field, metric, doc) RelaxedCounter field;
  UFILTER_ENGINE_COUNTERS(UFILTER_ENGINE_FIELD)
#undef UFILTER_ENGINE_FIELD

  EngineStats Snapshot() const {
    EngineStats s;
#define UFILTER_ENGINE_COPY(field, metric, doc) s.field = field;
    UFILTER_ENGINE_COUNTERS(UFILTER_ENGINE_COPY)
#undef UFILTER_ENGINE_COPY
    return s;
  }

  void Reset() {
#define UFILTER_ENGINE_RESET(field, metric, doc) field.Reset();
    UFILTER_ENGINE_COUNTERS(UFILTER_ENGINE_RESET)
#undef UFILTER_ENGINE_RESET
  }
};

/// \brief One table's storage: paged row slots plus sharded hash indexes,
/// shared between MVCC versions at page / shard granularity.
///
/// Row slot `id` lives in page `id / kPageSlots`; tombstoned slots stay in
/// place so RowIds are stable. An index is built over the primary key
/// (unique), over every UNIQUE column (unique) and over every foreign-key
/// column set (non-unique). Each index is a power-of-two number of flat
/// open-addressing hash shards, each a directory with one {key hash, RowId}
/// entry per distinct key hash; the shard count doubles whenever the index
/// averages more than kShardEntries distinct keys per shard. Rows that share
/// a key hash (a foreign key's children, NULLs) go to a posting list: a
/// B+-tree of row ids with kPostingFanout ids per node, so a key with k rows
/// costs O(log k) to insert into or erase from, and probes of other keys
/// never walk past it. Tables created without keys (materialized probe
/// results) have no indexes and are always scanned.
///
/// Pages, shards and posting nodes are stamped with the generation of the
/// Table that created them and shared between versions (pages and shards
/// through BlockVector, posting nodes through shared_ptr). A clone (the
/// copy-on-write step of a publish) copies only the page and shard pointer
/// vectors; its first write to a page, shard or posting node stamped with
/// another generation copies that one block. A point write after a publish
/// therefore copies one page, plus per changed index one shard and, for a
/// key with several rows, one posting node per tree level — never the
/// table.
class Table {
 public:
  /// Row slots per storage page (the copy-on-write unit for rows).
  static constexpr size_t kPageSlots = 64;
  /// Average distinct keys per hash shard before the shard count doubles
  /// (the copy-on-write unit for an index directory is one shard).
  static constexpr size_t kShardEntries = 64;
  /// Most row ids per posting-list node (the copy-on-write unit for the
  /// rows of one key).
  static constexpr size_t kPostingFanout = 64;

  /// `cow_stats` (nullable) counts the slots copy-on-write copies; base
  /// tables pass their database's counters, temp tables never share pages.
  explicit Table(const TableSchema* schema,
                 AtomicEngineStats* cow_stats = nullptr);

  /// Copy-on-write clone: shares every page and index shard with `other`
  /// under a fresh generation, so the clone's first write to a shared page
  /// or shard copies it. `other` must never be written again (Database
  /// retires it as the superseded version). Deliberately does NOT copy the
  /// columnar cache — the clone is the new live (mutable) version, and
  /// stale columns must never be observable through it. Writers therefore
  /// never see (or pay for) columnar state.
  Table(const Table& other);
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return *schema_; }
  size_t live_row_count() const { return live_count_; }
  /// Number of row slots (live + tombstoned). Slot-exact serialization
  /// (checkpoints, state fingerprints) iterates [0, SlotCount()) so a
  /// recovered table reproduces RowIds, tombstones included.
  size_t SlotCount() const { return slot_count_; }

  /// Returns the row at `id` or nullptr when out of range / deleted.
  const Row* GetRow(RowId id) const {
    if (id < 0 || static_cast<size_t>(id) >= slot_count_) return nullptr;
    const std::optional<Row>& slot =
        pages_[static_cast<size_t>(id) / kPageSlots]
            .slots[static_cast<size_t>(id) % kPageSlots];
    return slot.has_value() ? &*slot : nullptr;
  }
  bool IsLive(RowId id) const { return GetRow(id) != nullptr; }

  /// All live row ids in insertion order.
  std::vector<RowId> AllRowIds() const;

  /// Row ids matching all `preds` (conjunction). Uses a unique/non-unique
  /// index when one covers an equality predicate (unique indexes preferred —
  /// most selective); otherwise scans. Results are sorted, except that the
  /// sort is skipped when a unique index yields at most one candidate.
  std::vector<RowId> Find(const std::vector<ColumnPredicate>& preds,
                          AtomicEngineStats* stats) const;

  /// True if an index exists whose leading column is `column`.
  bool HasIndexOn(const std::string& column) const;

  // --- Planner / compiled-executor API (slot-addressed, no name lookups) ---

  /// True if a single-column index covers column `column_idx`.
  bool HasIndexOnColumn(int column_idx) const;
  /// True if a single-column *unique* index covers column `column_idx`.
  bool HasUniqueIndexOnColumn(int column_idx) const;

  /// Planner cardinality estimate for an equality on `column_idx`: a unique
  /// index gives 1, a non-unique index gives the average bucket size
  /// (live rows / distinct keys), no index gives live_row_count().
  double EstimateEqMatches(int column_idx) const;
  /// Same, but with the literal known: the exact hash-bucket occupancy.
  double EstimateEqMatches(int column_idx, const Value& literal) const;

  /// Hash-index equality probe addressed by column index. Appends verified
  /// matches to `out` *unsorted* (the plan executor orders final results
  /// itself) and allocates no probe row. Requires HasIndexOnColumn.
  void ProbeIndexEq(int column_idx, const Value& v, std::vector<RowId>* out,
                    AtomicEngineStats* stats) const;

  /// Appends `rows` without per-row constraint machinery (storage +
  /// index maintenance only) after one up-front reserve. Callers are
  /// responsible for constraint checking and undo logging; the intended
  /// user is ExecutionContext::BulkLoadTemp for index-free temp tables.
  void BulkLoad(std::vector<Row> rows, std::vector<RowId>* ids);

  /// The lazily built columnar projection of this table version (see
  /// relational/columnar.h). Only valid on an *immutable* table — the
  /// executor calls it solely for base tables resolved through a pinned
  /// snapshot, which copy-on-write protection guarantees will never change
  /// underneath the cache. Thread-safe: concurrent readers of the same
  /// version build once and share; `stats` (nullable) counts the build.
  /// Implemented in columnar.cc.
  std::shared_ptr<const ColumnarTable> columnar(AtomicEngineStats* stats) const;

 private:
  friend class Database;
  friend class ExecutionContext;
  friend class OpDryRunner;
  friend class StateLoader;

  /// kPageSlots row slots; `owner` is the generation allowed to write it in
  /// place.
  struct Page {
    uint64_t owner = 0;
    std::array<std::optional<Row>, kPageSlots> slots;
  };
  /// One directory entry of a shard: a mixed key hash and either the one
  /// row carrying it (id >= 0), nothing (kEmptyEntry) or, when several rows
  /// share the hash, posting list p of the shard (id == PostingRef(p)).
  struct IndexEntry {
    uint64_t hash;
    RowId id;
  };
  static constexpr RowId kEmptyEntry = -1;
  static constexpr RowId PostingRef(size_t p) {
    return -2 - static_cast<RowId>(p);
  }
  static constexpr size_t PostingOf(RowId ref) {
    return static_cast<size_t>(-2 - ref);
  }
  /// A node of a posting list: a B+-tree over the sorted row ids that share
  /// one key hash. A leaf holds row ids; an interior node holds, per child,
  /// the largest id under it. At most kPostingFanout ids per node, so a
  /// write copies at most one node per level.
  struct PostingNode {
    uint64_t owner = 0;
    std::vector<RowId> ids;
    std::vector<std::shared_ptr<PostingNode>> kids;  // empty in a leaf
  };
  struct Posting {
    uint64_t hash;
    size_t size;
    std::shared_ptr<PostingNode> root;
  };
  /// A linear-probing hash directory with one entry per distinct key hash
  /// and a power-of-two slot count, kept at most half full so every probe
  /// run ends at an empty slot. Rows sharing a hash live in `postings`, so
  /// a run never grows with duplicates of one key.
  struct Shard {
    uint64_t owner = 0;
    size_t count = 0;
    std::vector<IndexEntry> slots;
    std::vector<Posting> postings;
  };
  /// Position of `h`'s directory entry in `shard`, or of the empty slot
  /// that ends its probe run.
  static size_t ProbeSlot(const Shard& shard, uint64_t h) {
    const size_t mask = shard.slots.size() - 1;
    size_t pos = h & mask;
    while (shard.slots[pos].id != kEmptyEntry && shard.slots[pos].hash != h) {
      pos = (pos + 1) & mask;
    }
    return pos;
  }

  /// Copy-on-write storage of a table's pages or an index's shards. Reads
  /// go through a flat vector of raw block pointers; ownership lives in
  /// chunks of kChunkBlocks shared_ptrs. Copying the vector (a clone)
  /// therefore costs one memcpy plus one refcount update per chunk, not per
  /// block. A write to a block another generation owns copies the block
  /// and the pointer array of its chunk. (A plain vector of shared_ptrs
  /// pays one atomic refcount update per block on every clone and again
  /// when the version retires: cloning a 20 000-row chain leaf, 1 300
  /// blocks, took ~5-7 us that way against ~0.5 us here on a 4-vCPU VM.)
  template <typename Block>
  class BlockVector {
   public:
    static constexpr size_t kChunkBlocks = 64;

    size_t size() const { return raw_.size(); }
    const Block& operator[](size_t i) const { return *raw_[i]; }

    /// Appends `block`, owned by `generation`.
    void Append(std::shared_ptr<Block> block, uint64_t generation) {
      if (raw_.size() % kChunkBlocks == 0) {
        auto chunk = std::make_shared<Chunk>();
        chunk->owner = generation;
        chunk->blocks.reserve(kChunkBlocks);
        chunks_.push_back(std::move(chunk));
      }
      raw_.push_back(block.get());
      MutableChunk(chunks_.size() - 1, generation)
          ->blocks.push_back(std::move(block));
    }
    /// Puts `block`, owned by `generation`, in place of block `i`.
    void Replace(size_t i, std::shared_ptr<Block> block, uint64_t generation) {
      raw_[i] = block.get();
      MutableChunk(i / kChunkBlocks, generation)->blocks[i % kChunkBlocks] =
          std::move(block);
    }
    /// Block `i`, writable by `generation`: copied first when another
    /// generation owns it.
    Block* Mutable(size_t i, uint64_t generation) {
      if (raw_[i]->owner != generation) {
        auto copy = std::make_shared<Block>(*raw_[i]);
        copy->owner = generation;
        Replace(i, std::move(copy), generation);
      }
      return raw_[i];
    }
    void Reserve(size_t blocks) { raw_.reserve(blocks); }

   private:
    struct Chunk {
      uint64_t owner = 0;
      std::vector<std::shared_ptr<Block>> blocks;
    };
    Chunk* MutableChunk(size_t c, uint64_t generation) {
      std::shared_ptr<Chunk>& chunk = chunks_[c];
      if (chunk->owner != generation) {
        chunk = std::make_shared<Chunk>(*chunk);
        chunk->owner = generation;
      }
      return chunk.get();
    }

    std::vector<Block*> raw_;
    std::vector<std::shared_ptr<Chunk>> chunks_;
  };

  struct Index {
    std::vector<int> column_idx;
    bool unique = false;
    /// Entries over all shards (== live rows).
    size_t entries = 0;
    /// Distinct key hashes currently present (== directory entries); the
    /// planner's bucket estimate is entries / distinct keys.
    size_t distinct_keys = 0;
    /// Power-of-two count; shard of hash h is (h >> 32) & (size - 1).
    BlockVector<Shard> shards;

    const Shard& ShardFor(uint64_t h) const {
      return shards[(h >> 32) & (shards.size() - 1)];
    }
    /// The directory entry for hash `h` in `s`, or nullptr.
    static const IndexEntry* Lookup(const Shard& s, uint64_t h) {
      const IndexEntry& e = s.slots[ProbeSlot(s, h)];
      return e.id == kEmptyEntry ? nullptr : &e;
    }
    /// Calls `fn(RowId)` for every entry whose hash is `h` until it returns
    /// false.
    template <typename Fn>
    void ForEachMatch(uint64_t h, Fn&& fn) const {
      const Shard& s = ShardFor(h);
      const IndexEntry* e = Lookup(s, h);
      if (e == nullptr) return;
      if (e->id >= 0) {
        fn(e->id);
      } else {
        ForEachPosted(*s.postings[PostingOf(e->id)].root, fn);
      }
    }
    /// Number of entries whose hash is `h`.
    size_t CountMatches(uint64_t h) const {
      const Shard& s = ShardFor(h);
      const IndexEntry* e = Lookup(s, h);
      if (e == nullptr) return 0;
      return e->id >= 0 ? 1 : s.postings[PostingOf(e->id)].size;
    }
  };
  template <typename Fn>
  static bool ForEachPosted(const PostingNode& n, Fn& fn) {
    if (n.kids.empty()) {
      for (RowId id : n.ids) {
        if (!fn(id)) return false;
      }
      return true;
    }
    for (const std::shared_ptr<PostingNode>& kid : n.kids) {
      if (!ForEachPosted(*kid, fn)) return false;
    }
    return true;
  }

  // Storage-level mutation; constraint checks live in Database.
  RowId AppendRow(Row row);
  void EraseRow(RowId id);
  void RestoreRow(RowId id, Row row);
  void OverwriteRow(RowId id, Row row);
  /// Recovery-only: places `row` at exactly slot `id` (growing the slot
  /// array with tombstones as needed) and maintains indexes/live count.
  /// The slot must currently be empty.
  void PutSlotForRecovery(RowId id, Row row);

  // Index-key helpers, shared with the read-only op validator
  // (relational/dryrun.cc) so overlay probes hash into exactly the same
  // buckets as the live indexes.
  static size_t HashRowValues(const Row& row, const std::vector<int>& cols);
  static bool RowValuesEqual(const Row& a, const Row& b,
                             const std::vector<int>& cols);
  static bool AnyValueNull(const Row& row, const std::vector<int>& cols);

  /// Finds a unique-index collision for `row` (other than `self`), or -1.
  /// `resolve(id)` supplies the row image an index entry stands for (the
  /// dry-run validator passes its overlay view; null = no longer there).
  template <typename Resolve>
  RowId FindUniqueConflict(const Row& row, RowId self,
                           Resolve&& resolve) const {
    RowId hit = -1;
    for (const Index& idx : indexes_) {
      if (!idx.unique) continue;
      if (AnyValueNull(row, idx.column_idx)) continue;  // NULL never conflicts
      idx.ForEachMatch(IndexKeyHash(idx, row), [&](RowId id) {
        if (id == self) return true;
        const Row* other = resolve(id);
        if (other != nullptr && RowValuesEqual(*other, row, idx.column_idx)) {
          hit = id;
          return false;
        }
        return true;
      });
      if (hit >= 0) return hit;
    }
    return -1;
  }
  RowId FindUniqueConflict(const Row& row, RowId self) const {
    return FindUniqueConflict(row, self,
                              [this](RowId id) { return GetRow(id); });
  }
  /// Column sets of the unique indexes (primary key first).
  std::vector<const std::vector<int>*> UniqueKeyColumns() const;

  static uint64_t IndexKeyHash(const Index& index, const Row& row);
  const Index* FindIndexFor(const std::string& column) const;
  const Index* FindIndexForColumn(int column_idx) const;

  /// Writable slot `id` (< SlotCount()): copies its page first when another
  /// generation owns it.
  std::optional<Row>& MutableSlot(RowId id);
  /// Grows the slot array to at least `n` slots (new slots are tombstones),
  /// appending pages owned by this table. Recovery uses it to reproduce a
  /// checkpoint's tombstones so later appends land on the recorded RowIds.
  void GrowSlots(size_t n);
  /// Pre-sizes an empty table for a bulk load of `rows` rows (BulkLoad, and
  /// checkpoint and snapshot-bootstrap loads): the page vector, and every
  /// still-empty index for one key per row, so the load neither splits nor
  /// rehashes a shard. A non-unique index whose rows share keys is sized
  /// too large by up to two directory slots (32 bytes) per row.
  void ReserveRows(size_t rows);
  /// Writable shard `s` of `idx` with room for `entries` directory entries:
  /// copied first when another generation owns it, rehashed into a larger
  /// shard when it would pass half load.
  Shard* MutableShard(Index* idx, size_t s, size_t entries);
  void IndexInsert(RowId id, const Row& row);
  void IndexErase(RowId id, const Row& row);
  void IndexAdd(Index* idx, uint64_t h, RowId id);
  void IndexRemove(Index* idx, uint64_t h, RowId id);
  /// Doubles idx's shard count, splitting every shard (O(distinct keys);
  /// runs once per doubling of the index).
  void SplitShards(Index* idx);
  /// A fresh empty shard owned by this table, sized for `entries`.
  std::shared_ptr<Shard> NewShard(size_t entries) const;
  /// Places `e`, whose hash `shard` does not hold yet.
  static void ShardPlace(Shard* shard, const IndexEntry& e);
  /// Drops posting list `p` of `shard` (moving the last one into its place).
  static void ReleasePosting(Shard* shard, size_t p);
  /// Writable posting node, copied first when another generation owns it.
  PostingNode* MutableNode(std::shared_ptr<PostingNode>* node);
  /// Inserts `id` under `*node`; returns the new right sibling when the
  /// node overflowed and split, else nullptr.
  std::shared_ptr<PostingNode> PostingInsert(std::shared_ptr<PostingNode>* node,
                                             RowId id);
  /// Removes `id`, which must be present, from under `*node`.
  void PostingErase(std::shared_ptr<PostingNode>* node, RowId id);
  static bool PostingContains(const PostingNode& node, RowId id);
  void CountCopied(size_t slots) const;

  const TableSchema* schema_;
  AtomicEngineStats* cow_stats_;
  /// Pages and shards stamped with this generation are exclusively ours.
  uint64_t generation_;
  BlockVector<Page> pages_;
  size_t slot_count_ = 0;
  size_t live_count_ = 0;
  std::vector<Index> indexes_;

  /// Columnar cache (see columnar()). The version dies with the Table, so
  /// epoch GC reclaims columns together with their retired version. Mutable
  /// because building the cache is a logically-const read-path operation;
  /// the mutex only serializes the one-time build, never steady-state reads
  /// (callers hold their own shared_ptr once built).
  mutable std::mutex columnar_mu_;
  mutable std::shared_ptr<const ColumnarTable> columnar_;
};

/// Identifies one affected row of an executed update (used by tests and the
/// translation engine to report what happened).
struct AffectedRow {
  std::string table;
  RowId row_id;
};

/// Outcome of a delete: how many rows went away per table (cascades count).
struct DeleteOutcome {
  int64_t deleted_rows = 0;   ///< total rows removed across tables
  int64_t nulled_rows = 0;    ///< rows whose FK columns were SET NULL
  std::vector<AffectedRow> affected;
};

class Database;
class ExecutionContext;
class WalWriter;
struct DurabilityOptions;
struct WalRecord;    // wal.h
class StateLoader;   // wal.h

/// One logical row-level redo operation destined for the WAL. Captured at
/// every base-table mutation site, right next to the matching undo record;
/// the pairing (`owner` context + `undo_mark` index into its undo log) lets
/// a rollback discard exactly the redo ops of the undone statement, so a
/// published WAL record only ever carries committed effects. Replay applies
/// ops verbatim by RowId — cascades, SET NULL rewrites and multi-table
/// sequences recover without re-running constraint logic.
struct RedoOp {
  enum class Kind : uint8_t { kInsert = 0, kDelete = 1, kUpdate = 2 };
  Kind kind = Kind::kInsert;
  std::string table;
  RowId row_id = 0;
  /// New row image for kInsert / kUpdate; empty for kDelete.
  Row row;
  /// Rollback pairing (not serialized): the context that logged the
  /// matching undo record, and that record's index in its undo log.
  /// Sealed (nullptr / -1) once the op can no longer be rolled back.
  const ExecutionContext* owner = nullptr;
  int64_t undo_mark = -1;
};

/// \brief One published, immutable state of all base tables.
///
/// A publish ("commit") freezes the current table versions under a fresh
/// commit epoch, so publishing is O(#tables), not O(rows). The table
/// pointers are shared with the live state until a writer's first
/// post-publish mutation of a table clones it: the clone copies the page
/// and shard pointer vectors (O(rows / Table::kPageSlots) pointers), then
/// every page, index shard or posting node the writer touches is copied on
/// its first write. A point write copies one page of Table::kPageSlots rows
/// plus, per index whose key it changes, one shard (about
/// Table::kShardEntries keys) and, for a key held by several rows, one
/// posting node (at most Table::kPostingFanout + 1 ids) per tree level.
/// Immutable after construction; safe to read from any thread with no lock.
struct DatabaseVersion {
  uint64_t epoch = 0;
  /// Aligned with DatabaseSchema::tables().
  std::vector<std::shared_ptr<const Table>> tables;
};

/// \brief An RAII pin of one published DatabaseVersion.
///
/// While a Snapshot is alive, every table version it references is retained
/// (shared_ptr) and its epoch is excluded from garbage collection, so reads
/// through it are stable no matter how many commits happen concurrently.
/// Closing the snapshot (destruction) unpins the epoch and runs GC. The
/// Database must outlive all of its snapshots.
class Snapshot {
 public:
  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// The commit epoch this snapshot is pinned to.
  uint64_t epoch() const { return version_->epoch; }

  /// The pinned version of base table `idx` (schema order).
  const Table* TableAt(size_t idx) const { return version_->tables[idx].get(); }

  /// Resolves a *base* table by name at the pinned epoch (temp tables are
  /// per-context, never versioned). Null when no such base table exists.
  const Table* FindTable(const std::string& name) const;

 private:
  friend class Database;
  Snapshot(Database* db, std::shared_ptr<const DatabaseVersion> version)
      : db_(db), version_(std::move(version)) {}

  Database* db_;
  std::shared_ptr<const DatabaseVersion> version_;
};

/// \brief Per-session mutable scratch: temp tables and the undo log.
///
/// Everything a check session may create or rewind lives here, not in the
/// shared Database: materialized probe results (the paper's "TAB_book"),
/// savepoints, undo records. Two sessions holding separate contexts can
/// probe the same Database concurrently without sharing any mutable state;
/// one session's temp tables are invisible to another's queries.
///
/// The context is NOT internally synchronized: a session must not run two
/// mutating operations on its own context concurrently (the service layer's
/// writer lane guarantees this).
class ExecutionContext {
 public:
  explicit ExecutionContext(Database* db) : db_(db) {}
  /// Seals any redo ops still paired with this context's undo log (they
  /// can no longer be rolled back once the context is gone).
  ~ExecutionContext();
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  Database* database() const { return db_; }

  // --- Transactions (per-context undo log, nested savepoints) ---

  /// Marks a savepoint; returns its handle.
  size_t Begin() { return undo_log_.size(); }
  /// Releases savepoint `mark`, keeping the changes. Undo records are
  /// retained so an *outer* savepoint can still roll them back; call
  /// `Checkpoint` to discard the log once no savepoint is outstanding.
  void Commit(size_t mark) { (void)mark; }
  /// Undoes everything back to savepoint `mark`.
  void Rollback(size_t mark);
  /// Declares the current state rollback-free: clears the whole undo log
  /// (and seals the paired redo ops — they will publish with the next
  /// epoch's WAL record no matter what). Invalidates all savepoints.
  void Checkpoint();
  /// Number of undo records currently held (for tests).
  size_t undo_log_size() const { return undo_log_.size(); }

  // --- Temp tables (session-local, index-free scratch) ---

  /// Creates an index-free scratch table (materialized probe results). The
  /// name must not collide with a base table or another temp table of this
  /// context; other contexts' temp tables do not conflict.
  Result<Table*> CreateTempTable(TableSchema schema);

  /// Bulk-loads materialized probe rows into temp table `name`: one arity
  /// check per row, no FK/unique/domain machinery (index-free temp tables
  /// can never trip either), one storage reserve. Rows are still undo-logged
  /// so savepoint rollback removes them while the table is alive.
  Status BulkLoadTemp(const std::string& name, std::vector<Row> rows);
  Status DropTempTable(const std::string& name);
  bool IsTempTable(const std::string& name) const {
    return temp_tables_.count(name) > 0;
  }

  // --- Read snapshot (MVCC pin for check-only sessions) ---

  /// Pins `snapshot`: until cleared, every *base-table* read resolved
  /// through this context sees the snapshot's epoch, and every base-table
  /// mutation is refused (a pinned context is read-only by construction —
  /// this is what excludes lost updates / write skew from the snapshot
  /// path). Temp tables stay live: they are session-local scratch.
  void PinReadSnapshot(std::shared_ptr<const Snapshot> snapshot) {
    read_snapshot_ = std::move(snapshot);
  }
  void ClearReadSnapshot() { read_snapshot_.reset(); }
  const Snapshot* read_snapshot() const { return read_snapshot_.get(); }

 private:
  friend class Database;
  friend class OpDryRunner;

  enum class UndoKind { kInsert, kDelete, kUpdate };
  struct UndoRecord {
    UndoKind kind;
    std::string table;
    RowId row_id;
    Row old_row;  // for kDelete / kUpdate
  };

  Table* FindTempTable(const std::string& name) {
    auto it = temp_tables_.find(name);
    return it == temp_tables_.end() ? nullptr : it->second.get();
  }
  const Table* FindTempTable(const std::string& name) const {
    auto it = temp_tables_.find(name);
    return it == temp_tables_.end() ? nullptr : it->second.get();
  }

  Database* db_;
  // Reference stability matters: Table objects point into temp_schemas_.
  std::unordered_map<std::string, std::unique_ptr<Table>> temp_tables_;
  std::unordered_map<std::string, TableSchema> temp_schemas_;
  std::vector<UndoRecord> undo_log_;
  std::shared_ptr<const Snapshot> read_snapshot_;
};

/// \brief The database: schema + shared base tables + work counters.
///
/// All mutating calls are recorded in an ExecutionContext's undo log (the
/// context passed explicitly, or the database's built-in root context for
/// the single-session convenience API — every legacy call site keeps
/// working). This mirrors what the Fig. 14 baseline needs: blind
/// translation, side-effect detection, rollback.
class Database {
 public:
  /// Validates and adopts the schema, creating empty tables.
  static Result<std::unique_ptr<Database>> Create(DatabaseSchema schema);

  /// Best-effort drain of pending WAL records + final fsync.
  ~Database();

  const DatabaseSchema& schema() const { return schema_; }
  AtomicEngineStats& stats() const { return stats_; }

  /// Copy of the live work counters (see EngineStats for diffing).
  EngineStats SnapshotWorkCounters() const { return stats_.Snapshot(); }
  /// Zeroes all work counters; benchmarks call this between scenarios.
  void ResetWorkCounters() { stats_.Reset(); }

  /// The built-in context the single-session convenience API runs against.
  ExecutionContext* root_context() { return root_context_.get(); }
  /// A fresh context for a new session. The Database must outlive it.
  std::unique_ptr<ExecutionContext> CreateContext() {
    return std::make_unique<ExecutionContext>(this);
  }

  // --- MVCC: commit epochs, snapshots, garbage collection ---

  /// Largest publishable commit epoch (the last value is reserved so the
  /// counter can never wrap and reorder pinned epochs).
  static constexpr uint64_t kMaxCommitEpoch =
      std::numeric_limits<uint64_t>::max() - 1;

  /// Pins the latest published state. When unpublished mutations exist and
  /// no WriterGuard is active, they are published first, so a snapshot
  /// opened from quiescence always sees current data. Cheap: a mutex-guarded
  /// pointer copy — the returned snapshot is then read with **no lock**.
  std::shared_ptr<const Snapshot> OpenSnapshot();

  /// Publishes the live tables under the next commit epoch and retires what
  /// GC allows. Fails (and changes nothing) once the epoch space is
  /// exhausted (see kMaxCommitEpoch). Usually called through WriterGuard.
  Result<uint64_t> PublishVersion();

  /// Marks a writer transaction: while at least one guard is alive,
  /// OpenSnapshot will not auto-publish (snapshots must never observe a
  /// half-applied op sequence); the last guard to release publishes the
  /// accumulated mutations as one commit. Writers must already be mutually
  /// exclusive with each other (the service's writer lane).
  class WriterGuard {
   public:
    explicit WriterGuard(Database* db);
    ~WriterGuard();
    WriterGuard(const WriterGuard&) = delete;
    WriterGuard& operator=(const WriterGuard&) = delete;

    /// Declares that this transaction will leave no *net* change (e.g. the
    /// check-only execute/rollback protocol): on release the guard skips
    /// the publish and clears the dirty flag instead of committing a new
    /// epoch whose content is byte-identical to the previous one. Any
    /// copy-on-write clone made meanwhile simply becomes the live version
    /// (same content, so snapshots of the old version stay exact).
    void AbandonPublish() { abandon_publish_ = true; }

   private:
    Database* db_;
    bool abandon_publish_ = false;
  };

  /// Epoch of the latest published version.
  uint64_t commit_epoch() const;
  /// Smallest epoch any open snapshot pins (== commit_epoch() when none).
  uint64_t oldest_pinned_epoch() const;
  /// Superseded table versions still retained for pinned snapshots.
  size_t retained_version_count() const;
  /// Test hook for the overflow guard: jumps the epoch counter (e.g. to
  /// kMaxCommitEpoch) without publishing.
  void set_commit_epoch_for_testing(uint64_t epoch);

  /// Blocks until a version newer than `epoch` is published, `*cancel`
  /// (when non-null) reads true, or `deadline` passes; returns the commit
  /// epoch at wake-up. Every publish path (PublishVersion, WriterGuard
  /// release, OpenSnapshot's publish-on-demand, ApplyReplicatedEpoch,
  /// LoadReplicatedSnapshot) wakes all waiters. Replication subscriber
  /// threads block here while they are caught up.
  uint64_t WaitForCommitAfter(
      uint64_t epoch, std::chrono::steady_clock::time_point deadline,
      const std::atomic<bool>* cancel = nullptr) const;
  /// Wakes every WaitForCommitAfter waiter without a publish, so each
  /// re-reads its cancel flag. Shutdown sets the flag first, then calls
  /// this; the flag is read under the same mutex, so no wake-up is lost.
  void WakeCommitWaiters() const;

  /// Resolves `name` among base tables and `ctx`'s temp tables (null ctx =
  /// base tables only).
  Result<Table*> GetTable(const ExecutionContext* ctx,
                          const std::string& name);
  Result<const Table*> GetTable(const ExecutionContext* ctx,
                                const std::string& name) const;
  Result<Table*> GetTable(const std::string& name) {
    return GetTable(root_context_.get(), name);
  }
  Result<const Table*> GetTable(const std::string& name) const {
    return GetTable(root_context_.get(), name);
  }

  // --- Mutations (undo-logged into the given context) ---

  /// Inserts a row, enforcing NOT NULL, CHECK, PK/UNIQUE and FK existence.
  Result<RowId> Insert(ExecutionContext* ctx, const std::string& table,
                       Row row);
  Result<RowId> Insert(const std::string& table, Row row) {
    return Insert(root_context_.get(), table, std::move(row));
  }

  /// Inserts from a column-name/value mapping; missing columns become NULL.
  Result<RowId> InsertValues(ExecutionContext* ctx, const std::string& table,
                             const std::map<std::string, Value>& values);
  Result<RowId> InsertValues(const std::string& table,
                             const std::map<std::string, Value>& values) {
    return InsertValues(root_context_.get(), table, values);
  }

  /// Deletes all rows matching `preds`, honoring FK delete policies
  /// transitively. kRestrict aborts the whole delete with
  /// ConstraintViolation (nothing is applied thanks to the undo log).
  Result<DeleteOutcome> DeleteWhere(ExecutionContext* ctx,
                                    const std::string& table,
                                    const std::vector<ColumnPredicate>& preds);
  Result<DeleteOutcome> DeleteWhere(
      const std::string& table, const std::vector<ColumnPredicate>& preds) {
    return DeleteWhere(root_context_.get(), table, preds);
  }

  /// Deletes one row by id (same policy handling).
  Result<DeleteOutcome> DeleteRow(ExecutionContext* ctx,
                                  const std::string& table, RowId id);
  Result<DeleteOutcome> DeleteRow(const std::string& table, RowId id) {
    return DeleteRow(root_context_.get(), table, id);
  }

  /// Sets `assignments` on all rows matching `preds`; enforces the same
  /// constraints as Insert. Returns the number of rows updated.
  Result<int64_t> UpdateWhere(ExecutionContext* ctx, const std::string& table,
                              const std::map<std::string, Value>& assignments,
                              const std::vector<ColumnPredicate>& preds);
  Result<int64_t> UpdateWhere(const std::string& table,
                              const std::map<std::string, Value>& assignments,
                              const std::vector<ColumnPredicate>& preds) {
    return UpdateWhere(root_context_.get(), table, assignments, preds);
  }

  // --- Transactions on the root context (single-session convenience) ---

  size_t Begin() { return root_context_->Begin(); }
  void Commit(size_t mark) { root_context_->Commit(mark); }
  void Rollback(size_t mark) { root_context_->Rollback(mark); }
  void Checkpoint() { root_context_->Checkpoint(); }
  size_t undo_log_size() const { return root_context_->undo_log_size(); }

  // --- Temp tables on the root context (single-session convenience) ---

  Result<Table*> CreateTempTable(TableSchema schema) {
    return root_context_->CreateTempTable(std::move(schema));
  }
  Status BulkLoadTemp(const std::string& name, std::vector<Row> rows) {
    return root_context_->BulkLoadTemp(name, std::move(rows));
  }
  Status DropTempTable(const std::string& name) {
    return root_context_->DropTempTable(name);
  }
  bool IsTempTable(const std::string& name) const {
    return root_context_->IsTempTable(name);
  }

  /// Total live rows over all permanent tables (scale reporting in benches).
  size_t TotalRows() const;

  // --- Durability: write-ahead log, checkpoints, crash recovery ---
  // (implemented in wal.cc together with the file formats; see wal.h)

  /// Turns on WAL durability: from now on every published commit epoch
  /// appends one logical-redo record to `opts.wal_path` (created if
  /// missing, extended if present — e.g. right after RecoverFrom), fsynced
  /// per `opts.fsync_policy`. Mutations from *before* this call are not in
  /// the log; for a pre-populated database write a checkpoint right after
  /// enabling, or recovery will miss the seed data. Fails if durability is
  /// already enabled. Not concurrency-safe with in-flight writers: call it
  /// during setup, before the writer lane opens.
  Status EnableDurability(const DurabilityOptions& opts);
  bool durability_enabled() const {
    return wal_enabled_.load(std::memory_order_acquire);
  }
  /// First WAL append/fsync error, sticky (Status::OK while healthy).
  Status wal_status() const;
  /// Drains pending records and forces an fsync regardless of policy (the
  /// shutdown barrier). OK and a no-op when durability is off.
  Status SyncWal();

  /// Serializes the currently published version (publishing quiescent
  /// mutations first, like OpenSnapshot) atomically to `path` and returns
  /// its epoch. Recovery from {checkpoint, WAL} then replays only the WAL
  /// records with larger epochs. Reading the version is free — it is an
  /// immutable MVCC snapshot — so writers are never blocked by this.
  Result<uint64_t> WriteCheckpoint(const std::string& path);

  /// Rebuilds the last durable state into this (freshly created, empty,
  /// never-published) database: loads `opts.checkpoint_path` when set and
  /// present, then replays the WAL records of `opts.wal_path` with epochs
  /// past the checkpoint, in strictly increasing epoch order. A torn or
  /// corrupt WAL tail is discarded and physically truncated, so the
  /// database always lands on the last *fully published* epoch. Missing
  /// files mean an empty history (epoch 0). The schema must match what the
  /// log was written against. Call EnableDurability afterwards to resume
  /// appending to the same log.
  Status RecoverFrom(const DurabilityOptions& opts);
  Status RecoverFrom(const std::string& wal_path);

  /// Slot-exact fingerprint of the published tables: the chunk frames of
  /// a checkpoint file (wal.h StateEncoder), without its epoch, so two
  /// databases holding identical published data — e.g. one recovered, one
  /// live — compare byte-equal. Test oracle.
  Result<std::string> SerializePublishedState();

  // --- Replication (the follower's apply path; implemented in wal.cc) ---

  /// A loader for a chunked state stream (wal.h StateLoader) into fresh
  /// tables of this database's schema, detached from it until
  /// LoadReplicatedSnapshot installs them. It refers to this database's
  /// schema, so it must not outlive the database.
  std::unique_ptr<StateLoader> NewStateLoader() const;

  /// Bootstraps a freshly created, never-published database from a
  /// complete state load as of `epoch`: the wire twin of RecoverFrom's
  /// checkpoint phase. The loaded tables are installed and published under
  /// `epoch` in one step through the normal MVCC path, so no snapshot ever
  /// sees part of the load. Durability may already be enabled — the
  /// snapshot itself is never logged (the follower persists it as a local
  /// checkpoint file instead).
  Status LoadReplicatedSnapshot(uint64_t epoch,
                                std::unique_ptr<StateLoader> loader);

  /// Applies one shipped WAL record and publishes it under exactly
  /// `record.epoch` — Database::RecoverFrom running continuously. Records
  /// at or below the current commit epoch are skipped (idempotent
  /// resume-from-epoch after a reconnect). Requires writer quiescence
  /// (the follower serves check-only traffic; the service's writer lane
  /// serializes the applier with escalated check-only writers): a dirty
  /// live state or an active WriterGuard is an Internal error. When
  /// durability is enabled the record is also appended to the local WAL,
  /// so a restarted follower resumes from its own log. Any apply failure
  /// leaves the database poisoned for replication purposes — the follower
  /// must stop, not skip.
  Status ApplyReplicatedEpoch(const WalRecord& record);

  /// Drains pending WAL records into the log file *without* forcing an
  /// fsync (kGroup staging is flushed to the fd, the fsync schedule is
  /// untouched): makes every published record visible to a WalTailer (the
  /// replication source, on each publish wake-up). No-op when durability
  /// is off.
  Status FlushWalToFile();

  /// Forwards to WalWriter::set_crash_after_bytes_for_testing (the kill -9
  /// fuzz harness's torn-tail injector). No-op when durability is off.
  void set_wal_crash_after_bytes_for_testing(int64_t n);

 private:
  friend class ExecutionContext;
  friend class OpDryRunner;
  friend class Snapshot;

  explicit Database(DatabaseSchema schema);

  Status CheckRowConstraints(const TableSchema& schema, const Row& row) const;
  Status CheckForeignKeysExist(const TableSchema& schema,
                               const Row& row) const;
  // Recursive policy-driven delete. Appends to outcome. `table` must be a
  // writable (copy-on-write-resolved) table. `writable` memoizes the
  // per-transaction copy-on-write resolution of referencing tables so the
  // cascade walk takes the global snapshot mutex once per table, not once
  // per cascaded row.
  Status DeleteRowInternal(ExecutionContext* ctx, Table* table, RowId id,
                           DeleteOutcome* outcome,
                           std::unordered_map<std::string, Table*>* writable);

  Table* TableByName(const ExecutionContext* ctx, const std::string& name);
  const Table* TableByName(const ExecutionContext* ctx,
                           const std::string& name) const;

  /// Error when `name` is a base table and `ctx` is pinned to a read
  /// snapshot (pinned contexts are read-only for base tables).
  Status RefuseIfPinned(const ExecutionContext* ctx,
                        const std::string& name) const;
  /// Mutation-side resolution: temp tables pass through; a base table is
  /// refused while `ctx` is pinned to a read snapshot, and otherwise
  /// copy-on-write-resolved so no published version is ever mutated.
  /// Mutators call this as late as possible — after their read-only
  /// constraint/match checks — so rejected and zero-effect requests never
  /// pay for a clone.
  Result<Table*> WritableTable(ExecutionContext* ctx, const std::string& name);
  /// The live version of base table `idx`, cloned first when any published
  /// version / snapshot still references it (a pointer-vector clone; pages
  /// and shards are copied later, on first write). Marks the live state
  /// dirty.
  Table* WritableBaseTable(size_t idx);

  /// Table versions reclaimed by GC, handed back to the caller so their
  /// deallocation (pointer vectors plus the pages and shards no newer
  /// version shares) happens *after* snapshot_mu_ is released — freeing
  /// under the lock would stall every concurrent OpenSnapshot.
  using Graveyard = std::vector<std::shared_ptr<const Table>>;

  /// Freezes the live tables into a DatabaseVersion stamped `epoch`,
  /// makes it the published version and wakes the commit waiters
  /// (snapshot_mu_ held). Every publish path goes through here.
  void BuildVersionLocked(uint64_t epoch);
  /// Publish + GC with snapshot_mu_ held; reclaimed versions land in
  /// `graveyard`.
  Result<uint64_t> PublishLocked(Graveyard* graveyard);
  /// Guarantees published_ != nullptr with snapshot_mu_ held, even when the
  /// epoch space is already exhausted (terminal-epoch pin of the live
  /// state).
  void EnsurePublishedLocked(Graveyard* graveyard);
  /// Moves retired table versions we hold the last reference to (no pinned
  /// snapshot can still observe them) into `graveyard`.
  void CollectRetiredLocked(Graveyard* graveyard);

  // --- WAL internals (see wal.h for the file-format side) ---

  /// Records one redo op into the epoch-in-progress buffer (no-op while
  /// durability is off). Takes snapshot_mu_ so the append is ordered
  /// against any concurrent quiescent publish.
  void CaptureRedo(const ExecutionContext* ctx, RedoOp::Kind kind,
                   const std::string& table, RowId id, const Row* row);
  /// Rollback hook: discards the buffered redo ops whose paired undo
  /// records (owner `ctx`, index >= `mark`) are being undone.
  void DropRedoSince(const ExecutionContext* ctx, size_t mark);
  /// Context checkpoint/teardown hook: unpairs `ctx`'s buffered redo ops
  /// from its (about-to-vanish) undo log.
  void SealRedoFor(const ExecutionContext* ctx);
  /// snapshot_mu_ held: true when the caller should FlushWalPending()
  /// after releasing the lock.
  bool WalFlushNeededLocked() const {
    return wal_enabled_.load(std::memory_order_relaxed) &&
           !wal_pending_.empty();
  }
  /// Appends (and policy-fsyncs) every pending per-epoch record, FIFO.
  /// Takes wal_mu_ for the file I/O and re-takes snapshot_mu_ only for the
  /// brief queue pops — never the other way around, and never holding
  /// snapshot_mu_ across a write or fsync, so snapshot readers don't wait
  /// behind the disk.
  void FlushWalPending();

  DatabaseSchema schema_;
  /// Live (newest) table versions, aligned with schema_. shared_ptr so a
  /// published DatabaseVersion can share a table with the live state until
  /// a writer clones it; single-session flows without snapshots never pay
  /// for a clone and keep stable Table pointers.
  std::vector<std::shared_ptr<Table>> tables_;
  // GetTable sits on every probe's hot path: hashed lookups, not tree walks.
  std::unordered_map<std::string, size_t> table_index_;
  std::unique_ptr<ExecutionContext> root_context_;
  /// Bumped from concurrent workers; mutable so the whole read path stays
  /// const while still accounting its work.
  mutable AtomicEngineStats stats_;

  /// Guards the version state below: snapshot open/close, publish, the
  /// copy-on-write check-and-swap, and GC. Never held during probe
  /// evaluation — that is the whole point of the snapshot design.
  mutable std::mutex snapshot_mu_;
  /// Epoch of the latest published version; 0 until the first publish
  /// (publishing is lazy so snapshot-free single-session flows never pay
  /// for copy-on-write clones).
  uint64_t commit_epoch_ = 0;
  std::shared_ptr<const DatabaseVersion> published_;
  bool live_dirty_ = false;
  int writer_depth_ = 0;
  std::multiset<uint64_t> pinned_epochs_;
  struct RetiredVersion {
    /// Last published epoch that contained it (diagnostics only — GC is
    /// driven purely by the reference count, see CollectRetiredLocked).
    uint64_t superseded_epoch;
    std::shared_ptr<const Table> table;
  };
  std::vector<RetiredVersion> retired_;
  /// Signalled (with snapshot_mu_ held) on every publish and by
  /// WakeCommitWaiters; see WaitForCommitAfter.
  mutable std::condition_variable commit_cv_;

  /// Durability switch; checked (acquire) on every mutation's capture path
  /// so a WAL-free database pays one relaxed-ish load and nothing else.
  std::atomic<bool> wal_enabled_{false};
  /// Redo ops of the epoch in progress (guarded by snapshot_mu_). Publish
  /// moves them into wal_pending_ under the epoch they commit as.
  std::vector<RedoOp> wal_redo_;
  /// Published-but-not-yet-appended records, FIFO (guarded by
  /// snapshot_mu_; drained by FlushWalPending outside it).
  std::deque<std::pair<uint64_t, std::vector<RedoOp>>> wal_pending_;

  /// Guards the WAL file writer and its sticky error status. Lock order:
  /// wal_mu_ before snapshot_mu_; code holding snapshot_mu_ must never
  /// take wal_mu_.
  mutable std::mutex wal_mu_;
  std::unique_ptr<WalWriter> wal_writer_;
  Status wal_status_;
};

}  // namespace ufilter::relational

#endif  // UFILTER_RELATIONAL_DATABASE_H_
