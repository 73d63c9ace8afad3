// Synthetic scalable schemas/views for ablation studies: a chain of N
// relations t0 <- t1 <- ... <- t(N-1) (FK pointing left) published as an
// N-level FK-following nested view. Used to exercise the Section 7.1
// complexity claim: STAR marking is polynomial in the *view query* size and
// independent of the database size.
#ifndef UFILTER_FIXTURES_SYNTHETIC_H_
#define UFILTER_FIXTURES_SYNTHETIC_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "relational/database.h"

namespace ufilter::fixtures {

/// t<i>(k<i> PK, v<i>, p<i> FK -> t<i-1>.k<i-1>).
relational::DatabaseSchema MakeChainSchema(
    int depth,
    relational::DeletePolicy policy = relational::DeletePolicy::kCascade);

/// Seeds an empty chain database: each level gets `rows_per_level` rows,
/// row r of level i referencing row r % rows of level i-1. Ends with a
/// Checkpoint(), so the seed is one undo-free baseline. Extracted from
/// MakeChainDatabase so crash-recovery tests can replay the exact seeding
/// into a recovered or reference database.
Status PopulateChain(relational::Database* db, int depth, int rows_per_level);

/// Populates each level with `rows_per_level` rows; row r of level i
/// references row r % rows of level i-1.
Result<std::unique_ptr<relational::Database>> MakeChainDatabase(
    int depth, int rows_per_level,
    relational::DeletePolicy policy = relational::DeletePolicy::kCascade);

/// A chain whose foreign keys have low cardinality: row r of level i
/// references row r / children_per_parent of level i-1, so each referenced
/// parent has `children_per_parent` children (the last one fewer when it
/// does not divide `rows_per_level`). Ends with a Checkpoint().
Result<std::unique_ptr<relational::Database>> MakeFanoutChainDatabase(
    int depth, int rows_per_level, int children_per_parent,
    relational::DeletePolicy policy = relational::DeletePolicy::kCascade);

/// Applies one deterministic pseudo-random mutation batch (1-4 leaf-level
/// inserts / recolors / deletes-by-color, derived from `seed` and the batch
/// `index` alone, never from database state) and commits it as a single
/// WriterGuard epoch. Replaying batches 0..k-1 in order onto a freshly
/// populated chain always lands on the same published state — the
/// reference-replay oracle of the crash-recovery fuzz tests.
Status ApplyChainBatch(relational::Database* db, int depth,
                       int rows_per_level, uint32_t seed, int index);

/// <Chain> with N nested FLWRs following the FKs; every internal node is
/// (clean | safe-delete, safe-insert).
std::string ChainViewQuery(int depth);

/// Delete of the element at `level` (0-based) with key `key`.
std::string ChainDeleteUpdate(int level, int64_t key);

/// Delete of every element at `level` whose v<level> text equals `value`
/// (victim set depends on current data, unlike the key-addressed delete —
/// used by the snapshot fuzz tests to make verdicts epoch-sensitive).
std::string ChainDeleteByValueUpdate(int level, const std::string& value);

/// Value replacement: REPLACE the v<level> leaf of the element with key
/// `key` by `value`. Translates to UPDATE t<level> SET v<level>=... —
/// repeatable forever, which makes it the writer workload of the mixed
/// concurrency bench.
std::string ChainReplaceUpdate(int level, int64_t key,
                               const std::string& value);

}  // namespace ufilter::fixtures

#endif  // UFILTER_FIXTURES_SYNTHETIC_H_
