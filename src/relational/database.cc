#include "relational/database.h"

#include <algorithm>

#include "common/strings.h"
#include "relational/wal.h"

namespace ufilter::relational {

namespace {

size_t HashOneValue(const Value& v) {
  return static_cast<size_t>(0x345678) * 1000003 ^ v.Hash();
}

}  // namespace

size_t Table::HashRowValues(const Row& row, const std::vector<int>& cols) {
  size_t h = 0x345678;
  for (int c : cols) {
    h = h * 1000003 ^ row[static_cast<size_t>(c)].Hash();
  }
  return h;
}

bool Table::RowValuesEqual(const Row& a, const Row& b,
                           const std::vector<int>& cols) {
  for (int c : cols) {
    if (!(a[static_cast<size_t>(c)] == b[static_cast<size_t>(c)])) {
      return false;
    }
  }
  return true;
}

bool Table::AnyValueNull(const Row& row, const std::vector<int>& cols) {
  for (int c : cols) {
    if (row[static_cast<size_t>(c)].is_null()) return true;
  }
  return false;
}

// ---------------------------------------------------------------- Table ---

namespace {

// Generations are process-unique, so a page, shard or posting node stamped
// by one Table can never be mistaken as owned by another.
std::atomic<uint64_t> g_next_generation{1};

uint64_t NextGeneration() {
  return g_next_generation.fetch_add(1, std::memory_order_relaxed);
}

// Spreads a key hash over all 64 bits: the shard is picked from bits 32..,
// the slot within a shard from the low bits. A bijection, so equal mixed
// hashes mean equal key hashes (the old multimap's bucket semantics).
uint64_t MixHash(size_t h) {
  uint64_t m = static_cast<uint64_t>(h) * 0x9E3779B97F4A7C15ULL;
  return m ^ (m >> 29);
}

// Smallest power-of-two slot count that holds `entries` at < 1/2 load
// (at 3/4 load, absent-key probes took about twice as long as with
// std::unordered_multimap).
size_t ShardCapacityFor(size_t entries) {
  size_t cap = 8;
  while (cap < (entries + 1) * 2) cap *= 2;
  return cap;
}

}  // namespace

Table::Table(const TableSchema* schema, AtomicEngineStats* cow_stats)
    : schema_(schema), cow_stats_(cow_stats), generation_(NextGeneration()) {
  // Unique index over the primary key.
  if (!schema_->primary_key().empty()) {
    Index idx;
    idx.unique = true;
    for (const std::string& c : schema_->primary_key()) {
      idx.column_idx.push_back(schema_->ColumnIndex(c));
    }
    indexes_.push_back(std::move(idx));
  }
  // Unique index per UNIQUE column.
  for (size_t i = 0; i < schema_->columns().size(); ++i) {
    if (schema_->columns()[i].unique) {
      Index idx;
      idx.unique = true;
      idx.column_idx.push_back(static_cast<int>(i));
      indexes_.push_back(std::move(idx));
    }
  }
  // Non-unique index per foreign key column set.
  for (const ForeignKey& fk : schema_->foreign_keys()) {
    Index idx;
    idx.unique = false;
    for (const std::string& c : fk.columns) {
      idx.column_idx.push_back(schema_->ColumnIndex(c));
    }
    // Skip if it duplicates the PK index column set.
    bool dup = false;
    for (const Index& existing : indexes_) {
      if (existing.column_idx == idx.column_idx) dup = true;
    }
    if (!dup) indexes_.push_back(std::move(idx));
  }
  for (Index& idx : indexes_) idx.shards.Append(NewShard(0), generation_);
}

Table::Table(const Table& other)
    : schema_(other.schema_),
      cow_stats_(other.cow_stats_),
      generation_(NextGeneration()),
      pages_(other.pages_),
      slot_count_(other.slot_count_),
      live_count_(other.live_count_),
      indexes_(other.indexes_) {}

std::vector<RowId> Table::AllRowIds() const {
  std::vector<RowId> out;
  out.reserve(live_count_);
  for (size_t p = 0; p < pages_.size(); ++p) {
    const Page& page = pages_[p];
    const size_t base = p * kPageSlots;
    const size_t n = std::min(kPageSlots, slot_count_ - base);
    for (size_t i = 0; i < n; ++i) {
      if (page.slots[i].has_value()) {
        out.push_back(static_cast<RowId>(base + i));
      }
    }
  }
  return out;
}

std::vector<const std::vector<int>*> Table::UniqueKeyColumns() const {
  std::vector<const std::vector<int>*> out;
  for (const Index& idx : indexes_) {
    if (idx.unique) out.push_back(&idx.column_idx);
  }
  return out;
}

const Table::Index* Table::FindIndexFor(const std::string& column) const {
  return FindIndexForColumn(schema_->ColumnIndex(column));
}

const Table::Index* Table::FindIndexForColumn(int column_idx) const {
  if (column_idx < 0) return nullptr;
  const Index* found = nullptr;
  for (const Index& idx : indexes_) {
    if (idx.column_idx.size() != 1 || idx.column_idx[0] != column_idx) {
      continue;
    }
    // Prefer unique indexes (most selective).
    if (idx.unique) return &idx;
    if (found == nullptr) found = &idx;
  }
  return found;
}

bool Table::HasIndexOn(const std::string& column) const {
  return FindIndexFor(column) != nullptr;
}

bool Table::HasIndexOnColumn(int column_idx) const {
  return FindIndexForColumn(column_idx) != nullptr;
}

bool Table::HasUniqueIndexOnColumn(int column_idx) const {
  const Index* idx = FindIndexForColumn(column_idx);
  return idx != nullptr && idx->unique;
}

double Table::EstimateEqMatches(int column_idx) const {
  const Index* idx = FindIndexForColumn(column_idx);
  if (idx == nullptr) return static_cast<double>(live_count_);
  if (idx->unique) return 1.0;
  if (idx->distinct_keys == 0) return 0.0;
  return static_cast<double>(idx->entries) /
         static_cast<double>(idx->distinct_keys);
}

double Table::EstimateEqMatches(int column_idx, const Value& literal) const {
  const Index* idx = FindIndexForColumn(column_idx);
  if (idx == nullptr) return static_cast<double>(live_count_);
  return static_cast<double>(
      idx->CountMatches(MixHash(HashOneValue(literal))));
}

void Table::ProbeIndexEq(int column_idx, const Value& v,
                         std::vector<RowId>* out,
                         AtomicEngineStats* stats) const {
  const Index* idx = FindIndexForColumn(column_idx);
  if (idx == nullptr) return;
  if (stats != nullptr) stats->index_lookups++;
  const size_t col = static_cast<size_t>(column_idx);
  idx->ForEachMatch(MixHash(HashOneValue(v)), [&](RowId id) {
    const Row* row = GetRow(id);
    if (row != nullptr && (*row)[col] == v) out->push_back(id);
    return true;
  });
}

std::vector<RowId> Table::Find(const std::vector<ColumnPredicate>& preds,
                               AtomicEngineStats* stats) const {
  // Drive with a single-column index on an equality predicate, preferring a
  // unique index (most selective: at most one candidate) over the first
  // non-unique hit.
  const Index* driver = nullptr;
  const ColumnPredicate* driver_pred = nullptr;
  for (const ColumnPredicate& p : preds) {
    if (p.op != CompareOp::kEq) continue;
    const Index* idx = FindIndexFor(p.column);
    if (idx == nullptr) continue;
    if (driver == nullptr || (idx->unique && !driver->unique)) {
      driver = idx;
      driver_pred = &p;
      if (driver->unique) break;
    }
  }

  std::vector<RowId> candidates;
  if (driver != nullptr) {
    if (stats != nullptr) stats->index_lookups++;
    // Single-column driver: hash the literal directly, no probe-row alloc.
    const size_t col = static_cast<size_t>(driver->column_idx[0]);
    const Value& literal = driver_pred->literal;
    driver->ForEachMatch(MixHash(HashOneValue(literal)), [&](RowId id) {
      const Row* row = GetRow(id);
      if (row != nullptr && (*row)[col] == literal) candidates.push_back(id);
      return true;
    });
  } else {
    candidates = AllRowIds();
    if (stats != nullptr) stats->rows_scanned += candidates.size();
  }

  std::vector<RowId> out;
  for (RowId id : candidates) {
    const Row* row = GetRow(id);
    if (row == nullptr) continue;
    bool match = true;
    for (const ColumnPredicate& p : preds) {
      int c = schema_->ColumnIndex(p.column);
      if (c < 0 ||
          !EvalCompare((*row)[static_cast<size_t>(c)], p.op, p.literal)) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(id);
  }
  // A unique driver yields at most one candidate — already in order.
  if (!(driver != nullptr && driver->unique && out.size() <= 1)) {
    std::sort(out.begin(), out.end());
  }
  return out;
}

void Table::BulkLoad(std::vector<Row> rows, std::vector<RowId>* ids) {
  ReserveRows(rows.size());
  if (ids != nullptr) ids->reserve(ids->size() + rows.size());
  for (Row& row : rows) {
    RowId id = AppendRow(std::move(row));
    if (ids != nullptr) ids->push_back(id);
  }
}

void Table::CountCopied(size_t slots) const {
  if (cow_stats_ != nullptr) cow_stats_->cow_slots_copied += slots;
}

void Table::GrowSlots(size_t n) {
  while (pages_.size() * kPageSlots < n) {
    auto page = std::make_shared<Page>();
    page->owner = generation_;
    pages_.Append(std::move(page), generation_);
  }
  slot_count_ = std::max(slot_count_, n);
}

std::optional<Row>& Table::MutableSlot(RowId id) {
  const size_t p = static_cast<size_t>(id) / kPageSlots;
  // An older version shares this page: this version gets its own copy.
  if (pages_[p].owner != generation_) CountCopied(kPageSlots);
  return pages_.Mutable(p, generation_)->slots[static_cast<size_t>(id) %
                                               kPageSlots];
}

RowId Table::AppendRow(Row row) {
  const RowId id = static_cast<RowId>(slot_count_);
  GrowSlots(slot_count_ + 1);
  std::optional<Row>& slot = MutableSlot(id);
  slot = std::move(row);
  IndexInsert(id, *slot);
  ++live_count_;
  return id;
}

void Table::EraseRow(RowId id) {
  const Row* row = GetRow(id);
  if (row == nullptr) return;
  IndexErase(id, *row);
  MutableSlot(id).reset();
  --live_count_;
}

void Table::RestoreRow(RowId id, Row row) {
  std::optional<Row>& slot = MutableSlot(id);
  slot = std::move(row);
  IndexInsert(id, *slot);
  ++live_count_;
}

void Table::OverwriteRow(RowId id, Row row) {
  const Row* old = GetRow(id);
  for (Index& idx : indexes_) {
    const uint64_t h = IndexKeyHash(idx, row);
    if (old != nullptr) {
      const uint64_t old_h = IndexKeyHash(idx, *old);
      // Same key hash => the identical {hash, id} entry: a value-only
      // update touches (and copies) no index shard.
      if (old_h == h) continue;
      IndexRemove(&idx, old_h, id);
    }
    IndexAdd(&idx, h, id);
  }
  MutableSlot(id) = std::move(row);
}

void Table::PutSlotForRecovery(RowId id, Row row) {
  if (GetRow(id) != nullptr) return;  // caller validated; never clobber
  GrowSlots(static_cast<size_t>(id) + 1);
  std::optional<Row>& slot = MutableSlot(id);
  slot = std::move(row);
  IndexInsert(id, *slot);
  ++live_count_;
}

uint64_t Table::IndexKeyHash(const Index& index, const Row& row) {
  return MixHash(HashRowValues(row, index.column_idx));
}

std::shared_ptr<Table::Shard> Table::NewShard(size_t entries) const {
  auto shard = std::make_shared<Shard>();
  shard->owner = generation_;
  shard->slots.assign(ShardCapacityFor(entries), IndexEntry{0, kEmptyEntry});
  return shard;
}

Table::Shard* Table::MutableShard(Index* idx, size_t s, size_t entries) {
  const Shard& shard = idx->shards[s];
  // An older version shares this shard: this version gets its own copy.
  if (shard.owner != generation_) {
    CountCopied(shard.slots.size() + shard.postings.size());
  }
  if (shard.slots.size() < entries * 2) {
    // Too full: rehash into a larger shard of our own (which also serves
    // as the copy-on-write copy). Posting numbers stay valid.
    std::shared_ptr<Shard> grown = NewShard(entries);
    for (const IndexEntry& e : shard.slots) {
      if (e.id != kEmptyEntry) ShardPlace(grown.get(), e);
    }
    grown->postings = shard.postings;
    idx->shards.Replace(s, std::move(grown), generation_);
  }
  return idx->shards.Mutable(s, generation_);
}

Table::PostingNode* Table::MutableNode(std::shared_ptr<PostingNode>* node) {
  if ((*node)->owner != generation_) {
    CountCopied((*node)->ids.size());
    auto copy = std::make_shared<PostingNode>(**node);
    copy->owner = generation_;
    *node = std::move(copy);
  }
  return node->get();
}

std::shared_ptr<Table::PostingNode> Table::PostingInsert(
    std::shared_ptr<PostingNode>* node, RowId id) {
  PostingNode* n = MutableNode(node);
  auto at = std::lower_bound(n->ids.begin(), n->ids.end(), id);
  if (n->kids.empty()) {
    n->ids.insert(at, id);
  } else {
    // The child whose largest id is >= id; a new maximum goes to the last.
    size_t i = static_cast<size_t>(at - n->ids.begin());
    if (i == n->ids.size()) --i;
    std::shared_ptr<PostingNode> right = PostingInsert(&n->kids[i], id);
    n->ids[i] = n->kids[i]->ids.back();
    if (right != nullptr) {
      const auto pos = static_cast<std::ptrdiff_t>(i + 1);
      n->ids.insert(n->ids.begin() + pos, right->ids.back());
      n->kids.insert(n->kids.begin() + pos, std::move(right));
    }
  }
  if (n->ids.size() <= kPostingFanout) return nullptr;
  auto right = std::make_shared<PostingNode>();
  right->owner = generation_;
  const auto half = static_cast<std::ptrdiff_t>(n->ids.size() / 2);
  right->ids.assign(n->ids.begin() + half, n->ids.end());
  n->ids.erase(n->ids.begin() + half, n->ids.end());
  if (!n->kids.empty()) {
    right->kids.assign(std::make_move_iterator(n->kids.begin() + half),
                       std::make_move_iterator(n->kids.end()));
    n->kids.erase(n->kids.begin() + half, n->kids.end());
  }
  return right;
}

void Table::PostingErase(std::shared_ptr<PostingNode>* node, RowId id) {
  PostingNode* n = MutableNode(node);
  const size_t i = static_cast<size_t>(
      std::lower_bound(n->ids.begin(), n->ids.end(), id) - n->ids.begin());
  const auto pos = static_cast<std::ptrdiff_t>(i);
  if (n->kids.empty()) {
    n->ids.erase(n->ids.begin() + pos);
    return;
  }
  PostingErase(&n->kids[i], id);
  if (n->kids[i]->ids.empty()) {
    n->ids.erase(n->ids.begin() + pos);
    n->kids.erase(n->kids.begin() + pos);
  } else {
    n->ids[i] = n->kids[i]->ids.back();
  }
}

bool Table::PostingContains(const PostingNode& node, RowId id) {
  const auto at = std::lower_bound(node.ids.begin(), node.ids.end(), id);
  if (at == node.ids.end()) return false;
  if (node.kids.empty()) return *at == id;
  return PostingContains(*node.kids[static_cast<size_t>(at - node.ids.begin())],
                         id);
}

void Table::IndexAdd(Index* idx, uint64_t h, RowId id) {
  if (idx->distinct_keys + 1 > kShardEntries * idx->shards.size()) {
    SplitShards(idx);
  }
  const size_t s = (h >> 32) & (idx->shards.size() - 1);
  Shard* shard = MutableShard(idx, s, idx->shards[s].count + 1);
  IndexEntry& e = shard->slots[ProbeSlot(*shard, h)];
  if (e.id == kEmptyEntry) {
    e = IndexEntry{h, id};
    ++shard->count;
    ++idx->distinct_keys;
  } else if (e.id >= 0) {
    // The key's second row: both move to a new posting list.
    auto leaf = std::make_shared<PostingNode>();
    leaf->owner = generation_;
    leaf->ids = {std::min(e.id, id), std::max(e.id, id)};
    e.id = PostingRef(shard->postings.size());
    shard->postings.push_back(Posting{h, 2, std::move(leaf)});
  } else {
    Posting& posting = shard->postings[PostingOf(e.id)];
    std::shared_ptr<PostingNode> right = PostingInsert(&posting.root, id);
    if (right != nullptr) {
      auto root = std::make_shared<PostingNode>();
      root->owner = generation_;
      root->ids = {posting.root->ids.back(), right->ids.back()};
      root->kids.push_back(std::move(posting.root));
      root->kids.push_back(std::move(right));
      posting.root = std::move(root);
    }
    ++posting.size;
  }
  ++idx->entries;
}

void Table::IndexRemove(Index* idx, uint64_t h, RowId id) {
  const size_t s = (h >> 32) & (idx->shards.size() - 1);
  {
    // Nothing to remove => nothing to copy.
    const Shard& current = idx->shards[s];
    const IndexEntry* e = Index::Lookup(current, h);
    if (e == nullptr) return;
    if (e->id >= 0 ? e->id != id
                   : !PostingContains(*current.postings[PostingOf(e->id)].root,
                                      id)) {
      return;
    }
  }
  Shard* shard = MutableShard(idx, s, 0);
  std::vector<IndexEntry>& slots = shard->slots;
  const size_t found = ProbeSlot(*shard, h);
  --idx->entries;
  if (slots[found].id < 0) {
    const size_t p = PostingOf(slots[found].id);
    Posting& posting = shard->postings[p];
    PostingErase(&posting.root, id);
    while (posting.root->kids.size() == 1) {
      std::shared_ptr<PostingNode> only = posting.root->kids[0];
      posting.root = std::move(only);
    }
    if (--posting.size > 1) return;
    // One row left: it moves back into the directory entry.
    const PostingNode* n = posting.root.get();
    while (!n->kids.empty()) n = n->kids.front().get();
    slots[found].id = n->ids.front();
    ReleasePosting(shard, p);
    return;
  }
  // Backward-shift deletion: pull later run members whose home slot is not
  // cyclically inside (hole, j] into the hole, so no tombstones are needed.
  const size_t mask = slots.size() - 1;
  size_t hole = found;
  for (size_t j = (hole + 1) & mask; slots[j].id != kEmptyEntry;
       j = (j + 1) & mask) {
    const size_t home = slots[j].hash & mask;
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (!stays) {
      slots[hole] = slots[j];
      hole = j;
    }
  }
  slots[hole] = IndexEntry{0, kEmptyEntry};
  --shard->count;
  --idx->distinct_keys;
}

void Table::ReleasePosting(Shard* shard, size_t p) {
  const size_t last = shard->postings.size() - 1;
  if (p != last) {
    shard->postings[p] = std::move(shard->postings[last]);
    shard->slots[ProbeSlot(*shard, shard->postings[p].hash)].id =
        PostingRef(p);
  }
  shard->postings.pop_back();
}

void Table::SplitShards(Index* idx) {
  const size_t old_count = idx->shards.size();
  const size_t new_mask = old_count * 2 - 1;
  std::vector<std::shared_ptr<Shard>> split(old_count * 2);
  for (size_t s = 0; s < old_count; ++s) {
    // Shard s splits into s and s + old_count by hash bit 32 + log2(count);
    // size each half for the entries it actually receives.
    const Shard& old = idx->shards[s];
    if (old.owner != generation_) {
      CountCopied(old.slots.size() + old.postings.size());
    }
    size_t high = 0;
    for (const IndexEntry& e : old.slots) {
      if (e.id != kEmptyEntry && ((e.hash >> 32) & new_mask) != s) ++high;
    }
    split[s] = NewShard(old.count - high);
    split[s + old_count] = NewShard(high);
    for (IndexEntry e : old.slots) {
      if (e.id == kEmptyEntry) continue;
      Shard* to = split[(e.hash >> 32) & new_mask].get();
      if (e.id < 0) {
        // The posting list moves with its key; only its number changes.
        to->postings.push_back(old.postings[PostingOf(e.id)]);
        e.id = PostingRef(to->postings.size() - 1);
      }
      ShardPlace(to, e);
    }
  }
  BlockVector<Shard> shards;
  shards.Reserve(split.size());
  for (std::shared_ptr<Shard>& shard : split) {
    shards.Append(std::move(shard), generation_);
  }
  idx->shards = std::move(shards);
}

void Table::ShardPlace(Shard* shard, const IndexEntry& e) {
  shard->slots[ProbeSlot(*shard, e.hash)] = e;
  ++shard->count;
}

void Table::ReserveRows(size_t rows) {
  pages_.Reserve((slot_count_ + rows + kPageSlots - 1) / kPageSlots);
  for (Index& idx : indexes_) {
    if (idx.entries != 0) continue;
    size_t count = 1;
    while (count * kShardEntries < rows) count *= 2;
    if (count <= idx.shards.size()) continue;
    BlockVector<Shard> shards;
    shards.Reserve(count);
    for (size_t s = 0; s < count; ++s) {
      shards.Append(NewShard((rows + count - 1) / count), generation_);
    }
    idx.shards = std::move(shards);
  }
}

void Table::IndexInsert(RowId id, const Row& row) {
  for (Index& idx : indexes_) IndexAdd(&idx, IndexKeyHash(idx, row), id);
}

void Table::IndexErase(RowId id, const Row& row) {
  for (Index& idx : indexes_) IndexRemove(&idx, IndexKeyHash(idx, row), id);
}

// ------------------------------------------------------------- Database ---

Database::Database(DatabaseSchema schema) : schema_(std::move(schema)) {
  root_context_ = std::make_unique<ExecutionContext>(this);
  tables_.reserve(schema_.tables().size());
  for (size_t i = 0; i < schema_.tables().size(); ++i) {
    tables_.push_back(std::make_shared<Table>(&schema_.tables()[i], &stats_));
    table_index_[schema_.tables()[i].name()] = i;
  }
}

// ------------------------------------------------- MVCC: epochs/snapshots ---

Snapshot::~Snapshot() {
  // Reclaimed table versions are destroyed after the lock is released (a
  // big table's rows + indexes take a while to free; snapshot opens must
  // not wait behind that).
  Database::Graveyard graveyard;
  {
    std::lock_guard<std::mutex> lock(db_->snapshot_mu_);
    auto it = db_->pinned_epochs_.find(version_->epoch);
    if (it != db_->pinned_epochs_.end()) db_->pinned_epochs_.erase(it);
    // Drop the version reference before GC so use counts reflect the
    // unpin. (This frees at most the small DatabaseVersion struct: any
    // table it exclusively kept alive is held by retired_ too, and goes
    // through the graveyard.)
    version_.reset();
    db_->CollectRetiredLocked(&graveyard);
  }
}

const Table* Snapshot::FindTable(const std::string& name) const {
  auto it = db_->table_index_.find(name);
  if (it == db_->table_index_.end()) return nullptr;
  return version_->tables[it->second].get();
}

void Database::BuildVersionLocked(uint64_t epoch) {
  auto version = std::make_shared<DatabaseVersion>();
  version->epoch = epoch;
  version->tables.assign(tables_.begin(), tables_.end());
  published_ = std::move(version);
  live_dirty_ = false;
  commit_cv_.notify_all();
}

Result<uint64_t> Database::PublishLocked(Graveyard* graveyard) {
  if (commit_epoch_ >= kMaxCommitEpoch) {
    return Status::InvalidArgument(
        "commit epoch space exhausted (epoch " +
        std::to_string(commit_epoch_) +
        "); no further versions can be published");
  }
  ++commit_epoch_;
  BuildVersionLocked(commit_epoch_);
  if (wal_enabled_.load(std::memory_order_relaxed)) {
    // The epoch's redo ops become its WAL record. Only enqueued here — the
    // file write and fsync happen in FlushWalPending, after the publisher
    // releases snapshot_mu_, so no snapshot open ever waits on the disk.
    wal_pending_.emplace_back(commit_epoch_, std::move(wal_redo_));
    wal_redo_.clear();
  }
  CollectRetiredLocked(graveyard);
  return commit_epoch_;
}

void Database::CollectRetiredLocked(Graveyard* graveyard) {
  size_t kept = 0;
  for (RetiredVersion& retired : retired_) {
    // Reclaimable once the retention list holds the last reference: every
    // other reference — the published version that contained it, any
    // pinned snapshot's DatabaseVersion — is created and released under
    // snapshot_mu_, so use_count()==1 here proves no snapshot can still
    // reach it (raw Table pointers are only ever derived from a live pin).
    // This must NOT additionally wait for the pinned-epoch horizon: a
    // long-lived pin at epoch E only keeps epoch E's own tables alive, and
    // versions superseded after E would otherwise accumulate unboundedly
    // while that pin stays open.
    if (retired.table.use_count() == 1) {
      stats_.versions_retired++;
      graveyard->push_back(std::move(retired.table));
      continue;
    }
    retired_[kept++] = std::move(retired);
  }
  retired_.resize(kept);
}

void Database::EnsurePublishedLocked(Graveyard* graveyard) {
  if (published_ != nullptr) return;
  (void)PublishLocked(graveyard);
  if (published_ == nullptr) {
    // Epoch space exhausted before anything was ever published (reachable
    // only through the test hook): pin the live state under the terminal
    // epoch without consuming it. Ordering still holds — pins are <=
    // commit_epoch_ and later publishes keep failing.
    BuildVersionLocked(commit_epoch_);
  }
}

std::shared_ptr<const Snapshot> Database::OpenSnapshot() {
  Graveyard graveyard;  // declared first: destroyed after the lock releases
  std::shared_ptr<const Snapshot> snapshot;
  bool flush = false;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    const bool had_published = published_ != nullptr;
    const uint64_t epoch_before = commit_epoch_;
    EnsurePublishedLocked(&graveyard);
    if (live_dirty_ && writer_depth_ == 0) {
      // Publish-on-demand from quiescence so the snapshot sees current data.
      // On epoch exhaustion the snapshot pins the last published version.
      (void)PublishLocked(&graveyard);
    }
    // Flush only when this call itself published: a reader arriving in the
    // window between a writer's publish and the writer's flush must not be
    // drafted into paying for that writer's file write / fsync.
    flush = (!had_published || commit_epoch_ != epoch_before) &&
            WalFlushNeededLocked();
    pinned_epochs_.insert(published_->epoch);
    stats_.snapshots_opened++;
    snapshot = std::shared_ptr<const Snapshot>(new Snapshot(this, published_));
  }
  if (flush) FlushWalPending();
  return snapshot;
}

Result<uint64_t> Database::PublishVersion() {
  Graveyard graveyard;  // declared first: destroyed after the lock releases
  std::unique_lock<std::mutex> lock(snapshot_mu_);
  Result<uint64_t> result = PublishLocked(&graveyard);
  const bool flush = WalFlushNeededLocked();
  lock.unlock();
  if (flush) FlushWalPending();
  return result;
}

Database::WriterGuard::WriterGuard(Database* db) : db_(db) {
  Database::Graveyard graveyard;
  bool flush = false;
  {
    std::lock_guard<std::mutex> lock(db_->snapshot_mu_);
    // Pin down the pre-transaction state first: a snapshot opened while
    // this writer is mid-flight must never see a half-applied sequence, and
    // unpublished mutations from *before* the guard must be committed now —
    // otherwise an AbandonPublish release would silently discard them from
    // every future snapshot (its premise is "live == published at entry").
    db_->EnsurePublishedLocked(&graveyard);
    if (db_->writer_depth_ == 0 && db_->live_dirty_) {
      (void)db_->PublishLocked(&graveyard);
    }
    ++db_->writer_depth_;
    flush = db_->WalFlushNeededLocked();
  }
  if (flush) db_->FlushWalPending();
}

Database::WriterGuard::~WriterGuard() {
  Database::Graveyard graveyard;
  bool flush = false;
  {
    std::lock_guard<std::mutex> lock(db_->snapshot_mu_);
    if (--db_->writer_depth_ == 0 && db_->live_dirty_) {
      if (abandon_publish_) {
        // The transaction rolled everything back: the live tables are
        // byte-identical to the published version, so committing a new
        // epoch would only churn versions and GC for nothing.
        db_->live_dirty_ = false;
        db_->CollectRetiredLocked(&graveyard);
      } else {
        // Epoch exhaustion keeps the last published version pinned-readable;
        // mutations remain visible to live (writer-lane) reads only.
        (void)db_->PublishLocked(&graveyard);
      }
    }
    flush = db_->WalFlushNeededLocked();
  }
  if (flush) db_->FlushWalPending();
}

uint64_t Database::commit_epoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return commit_epoch_;
}

uint64_t Database::oldest_pinned_epoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return pinned_epochs_.empty() ? commit_epoch_ : *pinned_epochs_.begin();
}

size_t Database::retained_version_count() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return retired_.size();
}

void Database::set_commit_epoch_for_testing(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  commit_epoch_ = epoch;
}

uint64_t Database::WaitForCommitAfter(
    uint64_t epoch, std::chrono::steady_clock::time_point deadline,
    const std::atomic<bool>* cancel) const {
  std::unique_lock<std::mutex> lock(snapshot_mu_);
  commit_cv_.wait_until(lock, deadline, [&] {
    return commit_epoch_ > epoch ||
           (cancel != nullptr && cancel->load(std::memory_order_acquire));
  });
  return commit_epoch_;
}

void Database::WakeCommitWaiters() const {
  // Taking the mutex orders this wake after any waiter's predicate check:
  // a waiter either already sees the caller's cancel flag or is asleep and
  // gets the notification.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  commit_cv_.notify_all();
}

Table* Database::WritableBaseTable(size_t idx) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  live_dirty_ = true;
  std::shared_ptr<Table>& live = tables_[idx];
  if (live.use_count() > 1) {
    // A published version / pinned snapshot still references this table
    // version: retire it and mutate a clone that shares its pages and
    // shards (copy-on-write per page / shard on first write). Snapshot
    // readers keep probing the old version lock-free.
    retired_.push_back({commit_epoch_, live});
    live = std::make_shared<Table>(*live);
  }
  return live.get();
}

Status Database::RefuseIfPinned(const ExecutionContext* ctx,
                                const std::string& name) const {
  if (ctx == nullptr || ctx->read_snapshot() == nullptr) return Status::OK();
  if (ctx->IsTempTable(name)) return Status::OK();  // session scratch
  if (table_index_.count(name) == 0) return Status::OK();  // NotFound later
  return Status::InvalidArgument(
      "base table '" + name +
      "' is read-only: the context is pinned to a snapshot (epoch " +
      std::to_string(ctx->read_snapshot()->epoch()) + ")");
}

Result<Table*> Database::WritableTable(ExecutionContext* ctx,
                                       const std::string& name) {
  if (ctx == nullptr) ctx = root_context_.get();
  Table* temp = ctx->FindTempTable(name);
  if (temp != nullptr) return temp;  // session-local, never versioned
  auto it = table_index_.find(name);
  if (it == table_index_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  UFILTER_RETURN_NOT_OK(RefuseIfPinned(ctx, name));
  return WritableBaseTable(it->second);
}

Result<std::unique_ptr<Database>> Database::Create(DatabaseSchema schema) {
  UFILTER_RETURN_NOT_OK(schema.Validate());
  return std::unique_ptr<Database>(new Database(std::move(schema)));
}

Table* Database::TableByName(const ExecutionContext* ctx,
                             const std::string& name) {
  auto it = table_index_.find(name);
  if (it != table_index_.end()) {
    if (ctx != nullptr && ctx->read_snapshot() != nullptr) {
      // Snapshot-pinned context: every base-table read resolves to the
      // pinned epoch's immutable version. Mutation paths never come through
      // here (WritableTable refuses pinned contexts), so handing back a
      // non-const pointer to callers that only read is safe.
      return const_cast<Table*>(ctx->read_snapshot()->TableAt(it->second));
    }
    return tables_[it->second].get();
  }
  if (ctx != nullptr) {
    // Sessions only read their own temp tables; the const_cast hands the
    // session back mutable access to a table it created itself.
    return const_cast<Table*>(ctx->FindTempTable(name));
  }
  return nullptr;
}

const Table* Database::TableByName(const ExecutionContext* ctx,
                                   const std::string& name) const {
  return const_cast<Database*>(this)->TableByName(ctx, name);
}

Result<Table*> Database::GetTable(const ExecutionContext* ctx,
                                  const std::string& name) {
  Table* t = TableByName(ctx, name);
  if (t == nullptr) return Status::NotFound("no table '" + name + "'");
  return t;
}

Result<const Table*> Database::GetTable(const ExecutionContext* ctx,
                                        const std::string& name) const {
  const Table* t = TableByName(ctx, name);
  if (t == nullptr) return Status::NotFound("no table '" + name + "'");
  return t;
}

Status Database::CheckRowConstraints(const TableSchema& schema,
                                     const Row& row) const {
  if (row.size() != schema.columns().size()) {
    return Status::InvalidArgument(
        "row arity mismatch for table '" + schema.name() + "': got " +
        std::to_string(row.size()) + ", want " +
        std::to_string(schema.columns().size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = schema.columns()[i];
    const Value& v = row[i];
    if (col.not_null && v.is_null()) {
      return Status::ConstraintViolation("column '" + schema.name() + "." +
                                         col.name + "' is NOT NULL");
    }
    if (!v.is_null()) {
      // Domain check: strings into numeric columns are rejected; ints widen
      // into double columns.
      bool domain_ok = true;
      switch (col.type) {
        case ValueType::kInt:
          domain_ok = v.is_int();
          break;
        case ValueType::kDouble:
          domain_ok = v.is_int() || v.is_double();
          break;
        case ValueType::kString:
          domain_ok = v.is_string();
          break;
        case ValueType::kNull:
          domain_ok = false;
          break;
      }
      if (!domain_ok) {
        return Status::ConstraintViolation(
            "value " + v.ToSqlLiteral() + " out of domain " +
            ValueTypeName(col.type) + " for '" + schema.name() + "." +
            col.name + "'");
      }
    }
    for (const CheckPredicate& chk : col.checks) {
      if (!chk.Admits(v)) {
        return Status::ConstraintViolation(
            "CHECK (" + chk.ToString(schema.name() + "." + col.name) +
            ") violated by " + v.ToSqlLiteral());
      }
    }
  }
  return Status::OK();
}

Status Database::CheckForeignKeysExist(const TableSchema& schema,
                                       const Row& row) const {
  for (const ForeignKey& fk : schema.foreign_keys()) {
    std::vector<ColumnPredicate> preds;
    bool any_null = false;
    for (size_t i = 0; i < fk.columns.size(); ++i) {
      int c = schema.ColumnIndex(fk.columns[i]);
      const Value& v = row[static_cast<size_t>(c)];
      if (v.is_null()) {
        any_null = true;
        break;
      }
      preds.push_back({fk.ref_columns[i], CompareOp::kEq, v});
    }
    if (any_null) continue;  // NULL FKs reference nothing
    UFILTER_ASSIGN_OR_RETURN(const Table* ref, GetTable(fk.ref_table));
    if (ref->Find(preds, &stats_).empty()) {
      std::vector<std::string> vals;
      for (const auto& p : preds) vals.push_back(p.literal.ToSqlLiteral());
      return Status::ConstraintViolation(
          "FK violation: " + schema.name() + " -> " + fk.ref_table + " (" +
          Join(vals, ", ") + ") has no referenced row");
    }
  }
  return Status::OK();
}

Result<RowId> Database::Insert(ExecutionContext* ctx,
                               const std::string& table, Row row) {
  if (ctx == nullptr) ctx = root_context_.get();
  UFILTER_RETURN_NOT_OK(RefuseIfPinned(ctx, table));
  // Constraint checks run against the live (read-resolved) table; the
  // copy-on-write resolution is deferred until the row is actually
  // appended, so a rejected insert never clones anything.
  UFILTER_ASSIGN_OR_RETURN(const Table* probe, GetTable(ctx, table));
  UFILTER_RETURN_NOT_OK(CheckRowConstraints(probe->schema(), row));
  if (!ctx->IsTempTable(table)) {
    UFILTER_RETURN_NOT_OK(CheckForeignKeysExist(probe->schema(), row));
  }
  RowId conflict = probe->FindUniqueConflict(row, -1);
  if (conflict >= 0) {
    return Status::ConstraintViolation("unique key violation on table '" +
                                       table + "'");
  }
  UFILTER_ASSIGN_OR_RETURN(Table * t, WritableTable(ctx, table));
  RowId id = t->AppendRow(std::move(row));
  ctx->undo_log_.push_back(
      {ExecutionContext::UndoKind::kInsert, table, id, {}});
  stats_.rows_inserted++;
  stats_.undo_records++;
  if (!ctx->IsTempTable(table)) {
    CaptureRedo(ctx, RedoOp::Kind::kInsert, table, id, t->GetRow(id));
  }
  return id;
}

Result<RowId> Database::InsertValues(
    ExecutionContext* ctx, const std::string& table,
    const std::map<std::string, Value>& values) {
  UFILTER_ASSIGN_OR_RETURN(Table * t, GetTable(ctx, table));
  Row row(t->schema().columns().size());
  for (const auto& [name, value] : values) {
    int c = t->schema().ColumnIndex(name);
    if (c < 0) {
      return Status::NotFound("no column '" + name + "' in '" + table + "'");
    }
    row[static_cast<size_t>(c)] = value;
  }
  return Insert(ctx, table, std::move(row));
}

Status Database::DeleteRowInternal(
    ExecutionContext* ctx, Table* table, RowId id, DeleteOutcome* outcome,
    std::unordered_map<std::string, Table*>* writable) {
  // Per-transaction memo of copy-on-write resolutions: the writable pointer
  // is stable once resolved, and re-taking the global snapshot mutex per
  // cascaded row would contend with concurrent snapshot opens.
  auto writable_ref = [&](const std::string& name) -> Result<Table*> {
    auto cached = writable->find(name);
    if (cached != writable->end()) return cached->second;
    UFILTER_ASSIGN_OR_RETURN(Table * t, WritableTable(ctx, name));
    writable->emplace(name, t);
    return t;
  };
  const Row* row_ptr = table->GetRow(id);
  if (row_ptr == nullptr) return Status::OK();
  Row row = *row_ptr;  // copy before erasing
  const std::string& table_name = table->schema().name();

  // Handle referencing tables first (policy-driven).
  for (const TableSchema& other : schema_.tables()) {
    for (const ForeignKey& fk : other.foreign_keys()) {
      if (fk.ref_table != table_name) continue;
      std::vector<ColumnPredicate> preds;
      bool any_null = false;
      for (size_t i = 0; i < fk.columns.size(); ++i) {
        int rc = table->schema().ColumnIndex(fk.ref_columns[i]);
        const Value& v = row[static_cast<size_t>(rc)];
        if (v.is_null()) any_null = true;
        preds.push_back({fk.columns[i], CompareOp::kEq, v});
      }
      if (any_null) continue;
      // Find runs against the live version; the clone (if any) happens only
      // when a policy branch below actually mutates the referencing table —
      // the kRestrict rejection must not copy-on-write anything.
      UFILTER_ASSIGN_OR_RETURN(Table * probe_table,
                               GetTable(ctx, other.name()));
      std::vector<RowId> referencing = probe_table->Find(preds, &stats_);
      if (referencing.empty()) continue;
      switch (fk.on_delete) {
        case DeletePolicy::kRestrict:
          return Status::ConstraintViolation(
              "delete from '" + table_name + "' restricted: referenced by '" +
              other.name() + "'");
        case DeletePolicy::kCascade: {
          UFILTER_ASSIGN_OR_RETURN(Table * ref_table,
                                   writable_ref(other.name()));
          for (RowId rid : referencing) {
            UFILTER_RETURN_NOT_OK(
                DeleteRowInternal(ctx, ref_table, rid, outcome, writable));
          }
          break;
        }
        case DeletePolicy::kSetNull: {
          UFILTER_ASSIGN_OR_RETURN(Table * ref_table,
                                   writable_ref(other.name()));
          for (RowId rid : referencing) {
            const Row* old = ref_table->GetRow(rid);
            if (old == nullptr) continue;
            Row updated = *old;
            bool possible = true;
            for (const std::string& c : fk.columns) {
              int ci = other.ColumnIndex(c);
              if (other.columns()[static_cast<size_t>(ci)].not_null) {
                possible = false;
              }
              updated[static_cast<size_t>(ci)] = Value::Null();
            }
            if (!possible) {
              // SET NULL impossible on NOT NULL FK; fall back to cascade to
              // preserve integrity.
              UFILTER_RETURN_NOT_OK(
                  DeleteRowInternal(ctx, ref_table, rid, outcome, writable));
              continue;
            }
            ctx->undo_log_.push_back(
                {ExecutionContext::UndoKind::kUpdate, other.name(), rid,
                 *old});
            stats_.undo_records++;
            ref_table->OverwriteRow(rid, std::move(updated));
            stats_.rows_updated++;
            outcome->nulled_rows++;
            // Referencing tables are always base tables (schema-declared
            // FKs), so every SET NULL rewrite is redo-logged.
            CaptureRedo(ctx, RedoOp::Kind::kUpdate, other.name(), rid,
                        ref_table->GetRow(rid));
          }
          break;
        }
      }
    }
  }

  // The row may have been cascade-deleted through a cycle; re-check.
  if (table->GetRow(id) == nullptr) return Status::OK();
  ctx->undo_log_.push_back(
      {ExecutionContext::UndoKind::kDelete, table_name, id, row});
  stats_.undo_records++;
  if (!ctx->IsTempTable(table_name)) {
    CaptureRedo(ctx, RedoOp::Kind::kDelete, table_name, id, nullptr);
  }
  table->EraseRow(id);
  stats_.rows_deleted++;
  outcome->deleted_rows++;
  outcome->affected.push_back({table_name, id});
  return Status::OK();
}

Result<DeleteOutcome> Database::DeleteWhere(
    ExecutionContext* ctx, const std::string& table,
    const std::vector<ColumnPredicate>& preds) {
  if (ctx == nullptr) ctx = root_context_.get();
  UFILTER_RETURN_NOT_OK(RefuseIfPinned(ctx, table));
  // Match against the live table first: a delete that hits nothing must
  // not copy-on-write anything (RowIds survive the clone below).
  UFILTER_ASSIGN_OR_RETURN(const Table* probe, GetTable(ctx, table));
  std::vector<RowId> matches = probe->Find(preds, &stats_);
  DeleteOutcome outcome;
  if (matches.empty()) return outcome;
  UFILTER_ASSIGN_OR_RETURN(Table * t, WritableTable(ctx, table));
  std::unordered_map<std::string, Table*> writable{{table, t}};
  size_t mark = ctx->Begin();
  for (RowId id : matches) {
    Status st = DeleteRowInternal(ctx, t, id, &outcome, &writable);
    if (!st.ok()) {
      ctx->Rollback(mark);
      return st;
    }
  }
  ctx->Commit(mark);
  return outcome;
}

Result<DeleteOutcome> Database::DeleteRow(ExecutionContext* ctx,
                                          const std::string& table, RowId id) {
  if (ctx == nullptr) ctx = root_context_.get();
  UFILTER_RETURN_NOT_OK(RefuseIfPinned(ctx, table));
  UFILTER_ASSIGN_OR_RETURN(const Table* probe, GetTable(ctx, table));
  DeleteOutcome outcome;
  if (probe->GetRow(id) == nullptr) return outcome;  // nothing to delete
  UFILTER_ASSIGN_OR_RETURN(Table * t, WritableTable(ctx, table));
  std::unordered_map<std::string, Table*> writable{{table, t}};
  size_t mark = ctx->Begin();
  Status st = DeleteRowInternal(ctx, t, id, &outcome, &writable);
  if (!st.ok()) {
    ctx->Rollback(mark);
    return st;
  }
  ctx->Commit(mark);
  return outcome;
}

Result<int64_t> Database::UpdateWhere(
    ExecutionContext* ctx, const std::string& table,
    const std::map<std::string, Value>& assignments,
    const std::vector<ColumnPredicate>& preds) {
  if (ctx == nullptr) ctx = root_context_.get();
  UFILTER_RETURN_NOT_OK(RefuseIfPinned(ctx, table));
  UFILTER_ASSIGN_OR_RETURN(const Table* probe, GetTable(ctx, table));
  const TableSchema& schema = probe->schema();
  for (const auto& [name, value] : assignments) {
    (void)value;
    if (!schema.HasColumn(name)) {
      return Status::NotFound("no column '" + name + "' in '" + table + "'");
    }
  }
  // Zero-match updates clone nothing (RowIds survive the clone below).
  std::vector<RowId> matches = probe->Find(preds, &stats_);
  if (matches.empty()) return 0;
  UFILTER_ASSIGN_OR_RETURN(Table * t, WritableTable(ctx, table));
  int64_t updated = 0;
  size_t mark = ctx->Begin();
  for (RowId id : matches) {
    const Row* old = t->GetRow(id);
    if (old == nullptr) continue;
    Row next = *old;
    for (const auto& [name, value] : assignments) {
      next[static_cast<size_t>(schema.ColumnIndex(name))] = value;
    }
    Status st = CheckRowConstraints(schema, next);
    if (st.ok() && !ctx->IsTempTable(table)) {
      st = CheckForeignKeysExist(schema, next);
    }
    if (st.ok()) {
      RowId conflict = t->FindUniqueConflict(next, id);
      if (conflict >= 0) {
        st = Status::ConstraintViolation("unique key violation on table '" +
                                         table + "'");
      }
    }
    if (!st.ok()) {
      ctx->Rollback(mark);
      return st;
    }
    ctx->undo_log_.push_back(
        {ExecutionContext::UndoKind::kUpdate, table, id, *old});
    stats_.undo_records++;
    t->OverwriteRow(id, std::move(next));
    stats_.rows_updated++;
    if (!ctx->IsTempTable(table)) {
      CaptureRedo(ctx, RedoOp::Kind::kUpdate, table, id, t->GetRow(id));
    }
    ++updated;
  }
  ctx->Commit(mark);
  return updated;
}

void Database::CaptureRedo(const ExecutionContext* ctx, RedoOp::Kind kind,
                           const std::string& table, RowId id,
                           const Row* row) {
  if (!wal_enabled_.load(std::memory_order_acquire)) return;
  RedoOp op;
  op.kind = kind;
  op.table = table;
  op.row_id = id;
  if (row != nullptr) op.row = *row;
  op.owner = ctx;
  // The matching undo record was just pushed; pairing by index lets a
  // rollback to any savepoint discard exactly the right redo suffix.
  op.undo_mark = static_cast<int64_t>(ctx->undo_log_.size()) - 1;
  // Under snapshot_mu_ so the append is ordered against a concurrent
  // quiescent publish (OpenSnapshot) packaging wal_redo_ into a record.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  wal_redo_.push_back(std::move(op));
}

void Database::DropRedoSince(const ExecutionContext* ctx, size_t mark) {
  if (!wal_enabled_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  wal_redo_.erase(
      std::remove_if(wal_redo_.begin(), wal_redo_.end(),
                     [&](const RedoOp& op) {
                       return op.owner == ctx &&
                              op.undo_mark >= static_cast<int64_t>(mark);
                     }),
      wal_redo_.end());
}

void Database::SealRedoFor(const ExecutionContext* ctx) {
  if (!wal_enabled_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  for (RedoOp& op : wal_redo_) {
    if (op.owner == ctx) {
      op.owner = nullptr;
      op.undo_mark = -1;
    }
  }
}

ExecutionContext::~ExecutionContext() { db_->SealRedoFor(this); }

void ExecutionContext::Checkpoint() {
  // The undo records are about to vanish, so the paired redo ops become
  // un-rollbackable: seal them — they publish with the next epoch's WAL
  // record no matter what this context does afterwards.
  db_->SealRedoFor(this);
  undo_log_.clear();
}

void ExecutionContext::Rollback(size_t mark) {
  // Discard the redo ops of the statements being undone first: the undo
  // walk below rewrites rows directly (bypassing the capture sites), so
  // after it the net effect of [mark, end) is zero on both logs.
  db_->DropRedoSince(this, mark);
  // Base tables resolve through the copy-on-write gate: rolling back must
  // never rewrite a version a snapshot still pins. (A context doing a
  // rollback is by construction not snapshot-pinned — pinned contexts
  // cannot have accumulated undo records.) The resolution is memoized per
  // table: the writable pointer is stable for the rest of the transaction,
  // and re-checking it per undo record would hammer the global snapshot
  // mutex on large rollbacks.
  std::unordered_map<std::string, Table*> writable;
  while (undo_log_.size() > mark) {
    UndoRecord rec = std::move(undo_log_.back());
    undo_log_.pop_back();
    Table* t = FindTempTable(rec.table);
    if (t == nullptr) {
      auto cached = writable.find(rec.table);
      if (cached != writable.end()) {
        t = cached->second;
      } else {
        auto it = db_->table_index_.find(rec.table);
        if (it != db_->table_index_.end()) {
          t = db_->WritableBaseTable(it->second);
        }
        writable.emplace(rec.table, t);
      }
    }
    if (t == nullptr) continue;  // temp table dropped meanwhile
    switch (rec.kind) {
      case UndoKind::kInsert:
        t->EraseRow(rec.row_id);
        break;
      case UndoKind::kDelete:
        t->RestoreRow(rec.row_id, std::move(rec.old_row));
        break;
      case UndoKind::kUpdate:
        t->OverwriteRow(rec.row_id, std::move(rec.old_row));
        break;
    }
  }
}

Result<Table*> ExecutionContext::CreateTempTable(TableSchema schema) {
  std::string name = schema.name();
  if (db_->table_index_.count(name) > 0 || temp_tables_.count(name) > 0) {
    return Status::InvalidArgument("table '" + name + "' already exists");
  }
  temp_schemas_[name] = std::move(schema);
  auto table = std::make_unique<Table>(&temp_schemas_[name]);
  Table* raw = table.get();
  temp_tables_[name] = std::move(table);
  return raw;
}

Status ExecutionContext::BulkLoadTemp(const std::string& name,
                                      std::vector<Row> rows) {
  Table* t = FindTempTable(name);
  if (t == nullptr) {
    return Status::InvalidArgument("'" + name +
                                   "' is not a temp table (BulkLoadTemp "
                                   "bypasses constraint checking)");
  }
  const size_t arity = t->schema().columns().size();
  for (const Row& row : rows) {
    if (row.size() != arity) {
      return Status::InvalidArgument(
          "row arity mismatch for temp table '" + name + "': got " +
          std::to_string(row.size()) + ", want " + std::to_string(arity));
    }
  }
  std::vector<RowId> ids;
  t->BulkLoad(std::move(rows), &ids);
  undo_log_.reserve(undo_log_.size() + ids.size());
  for (RowId id : ids) {
    undo_log_.push_back({UndoKind::kInsert, name, id, {}});
  }
  db_->stats_.rows_inserted += ids.size();
  db_->stats_.undo_records += ids.size();
  return Status::OK();
}

Status ExecutionContext::DropTempTable(const std::string& name) {
  if (temp_tables_.erase(name) == 0) {
    return Status::NotFound("no temp table '" + name + "'");
  }
  temp_schemas_.erase(name);
  return Status::OK();
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& t : tables_) total += t->live_row_count();
  return total;
}

}  // namespace ufilter::relational
