// Write-ahead log + checkpoint persistence for the MVCC database.
//
// Durability model (see docs/ARCHITECTURE.md, "Durability & recovery"):
// every *published commit epoch* appends exactly one WAL record carrying
// the logical row-level redo ops of that transaction (captured next to the
// undo log on the writer lane, so a rolled-back op never reaches the WAL).
// A record is framed as
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// after an 8-byte file magic; the payload is the epoch plus the op list.
// Recovery replays complete, checksum-valid records in epoch order and
// truncates the file at the first torn/corrupt frame, so a kill -9 mid-write
// always lands the database on a fully published epoch — never a partial
// transaction. Epoch-based checkpoints (an immutable DatabaseVersion
// serialized slot-exactly, tombstones included) bound replay: recovery
// loads the checkpoint and replays only the WAL suffix with larger epochs.
//
// Fsync scheduling is policy-driven: kAlways syncs per record, kGroup
// batches syncs across consecutive commits of the (serial) writer lane —
// the group-commit knob — and kNever leaves flushing to the OS. All file
// I/O happens under its own wal mutex, never under the database's snapshot
// mutex, so snapshot readers never wait behind an fsync.
#ifndef UFILTER_RELATIONAL_WAL_H_
#define UFILTER_RELATIONAL_WAL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/database.h"

namespace ufilter::relational {

/// When WAL appends are fsynced to stable storage.
enum class FsyncPolicy {
  kNever,   ///< never fsync (page cache only; fastest, weakest)
  kGroup,   ///< fsync once per `group_commit_size` appended records
  kAlways,  ///< fsync after every record (strongest, slowest)
};

const char* FsyncPolicyName(FsyncPolicy p);

/// Configuration for Database::EnableDurability / Database::RecoverFrom.
struct DurabilityOptions {
  /// WAL file path; empty means durability stays off.
  std::string wal_path;
  FsyncPolicy fsync_policy = FsyncPolicy::kGroup;
  /// kGroup: fsync once this many records accumulated unsynced.
  size_t group_commit_size = 8;
  /// Optional checkpoint file path (see Database::WriteCheckpoint).
  std::string checkpoint_path;
};

/// One WAL record: the redo ops published under one commit epoch.
struct WalRecord {
  uint64_t epoch = 0;
  std::vector<RedoOp> ops;
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `n` bytes.
uint32_t Crc32(const void* data, size_t n);

/// Serializes / parses one record payload (epoch + ops; no framing).
std::string EncodeWalPayload(const WalRecord& record);
Result<WalRecord> DecodeWalPayload(const std::string& payload);

/// \brief Append-only WAL file writer (POSIX fd, explicit fsync control).
///
/// Not internally synchronized: the Database serializes all calls under its
/// wal mutex (appends come off the serial writer lane anyway).
class WalWriter {
 public:
  /// Opens `path` for appending, writing the file magic when the file is
  /// new and validating it when it already exists (e.g. after recovery).
  /// `stats`, when non-null, receives wal_records/wal_fsyncs/wal_bytes.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 FsyncPolicy policy,
                                                 size_t group_commit_size,
                                                 AtomicEngineStats* stats);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Frames, checksums and appends one record, then fsyncs per policy.
  /// Under kGroup the frame is staged in a user-space buffer and reaches
  /// the file in one write()+fsync per group — callers that want the live
  /// file to reflect every append must Sync() first.
  Status Append(const WalRecord& record);

  /// Forces an fsync of any unsynced appends (any policy). No-op when
  /// everything appended is already synced.
  Status Sync();

  /// Pushes any kGroup-staged frames into the file *without* fsyncing, so
  /// a concurrent WalTailer (the replication source) sees every appended
  /// record immediately while the group-commit fsync schedule stays
  /// untouched. No-op for kNever/kAlways (nothing is ever staged).
  Status Flush();

  uint64_t records_appended() const { return records_; }
  uint64_t fsyncs() const { return fsyncs_; }
  uint64_t bytes_written() const { return total_bytes_; }

  /// Crash-injection hook for the kill -9 fuzz harness: once the writer has
  /// emitted `n` total bytes (file magic included), the next write stops at
  /// exactly that offset and the process raises SIGKILL — producing a torn
  /// record at a controlled byte position. Negative disables.
  void set_crash_after_bytes_for_testing(int64_t n) {
    crash_after_bytes_ = n;
  }

 private:
  WalWriter(int fd, FsyncPolicy policy, size_t group_commit_size,
            AtomicEngineStats* stats)
      : fd_(fd), policy_(policy), group_size_(group_commit_size),
        stats_(stats) {}

  Status WriteRaw(const char* data, size_t n);

  int fd_ = -1;
  FsyncPolicy policy_ = FsyncPolicy::kGroup;
  size_t group_size_ = 8;
  AtomicEngineStats* stats_ = nullptr;
  uint64_t records_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t unsynced_records_ = 0;
  // kGroup staging area: frames accumulate here and hit the file as one
  // write() at the group boundary, so a group costs one syscall + one
  // fsync instead of group_size_ syscalls + one fsync.
  std::string group_buf_;
  int64_t crash_after_bytes_ = -1;
};

/// Result of scanning a WAL file.
struct WalReadResult {
  /// Complete, checksum-valid records in file order.
  std::vector<WalRecord> records;
  /// Byte length of the valid prefix (the truncation point for a torn
  /// tail). At least the file-magic length for a well-formed file.
  uint64_t valid_bytes = 0;
  /// Bytes exist past the valid prefix: a torn/corrupt tail record.
  bool tail_truncated = false;
};

/// Scans `path`, tolerating a torn or corrupt tail: parsing stops at the
/// first incomplete frame, checksum mismatch or undecodable payload, and
/// everything before it is returned. Missing file is NotFound (callers
/// treat that as an empty log); a present file with a wrong magic is
/// InvalidArgument.
Result<WalReadResult> ReadWal(const std::string& path);

/// \brief Incremental reader over a *live* WAL file: the replication feed.
///
/// Keeps a byte offset into the log and, on each Poll(), returns every
/// record frame past `after_epoch` that has become complete since the last
/// call. An incomplete tail (the writer is mid-append) is simply "no more
/// records yet" — but a complete-length frame with a CRC or decode failure
/// is real corruption and a permanent error, because an append-only writer
/// never leaves bad bytes *behind* the tail it is extending.
///
/// Records at or below `after_epoch` (what a subscriber already holds from
/// its bootstrap or its own log) are stepped over by header: only each
/// frame's length and the payload's leading epoch are read, so their
/// payloads are never buffered, checksummed or decoded. Their epochs must
/// still strictly increase.
///
/// Not internally synchronized; one tailer per subscriber thread.
class WalTailer {
 public:
  /// One record that became complete in the file.
  struct TailedRecord {
    uint64_t epoch = 0;
    /// EncodeWalPayload bytes (epoch + ops), ready for the wire.
    std::string payload;
    /// File offset just past this record's frame.
    uint64_t end_offset = 0;
  };

  explicit WalTailer(std::string path, uint64_t after_epoch = 0)
      : path_(std::move(path)),
        after_epoch_(after_epoch),
        skipping_(after_epoch > 0) {}
  ~WalTailer();
  WalTailer(const WalTailer&) = delete;
  WalTailer& operator=(const WalTailer&) = delete;

  /// Reads forward from the current offset; stops early once the batch
  /// holds >= max_batch_bytes of payload. A missing file yields an empty
  /// batch (the writer has not created the log yet).
  Result<std::vector<TailedRecord>> Poll(size_t max_batch_bytes);

  /// Bytes fully consumed (magic + complete frames handed out).
  uint64_t offset() const { return offset_; }

  /// Total file bytes observed so far (consumed + a possibly-incomplete
  /// tail). The shipped-vs-total pair is the subscriber's byte lag.
  uint64_t known_file_bytes() const {
    return std::max(offset_ + pending_.size(), file_bytes_seen_);
  }

 private:
  /// Advances offset_ past whole records with epochs <= after_epoch_.
  /// Returns false while such a record is still being appended.
  Result<bool> SkipToStartEpoch();

  std::string path_;
  uint64_t after_epoch_ = 0;
  /// Still stepping over records at or below after_epoch_.
  bool skipping_;
  uint64_t last_skipped_epoch_ = 0;
  /// File size at the last skip pass (the skip reads no bytes into
  /// pending_, so known_file_bytes() needs it).
  uint64_t file_bytes_seen_ = 0;
  int fd_ = -1;
  bool magic_checked_ = false;
  uint64_t offset_ = 0;
  /// Bytes read past offset_ that do not yet form a complete frame.
  std::string pending_;
};

// ---- The state format: one chunked codec for every full-state image ----
//
// A published version travels as a sequence of self-checking chunks, each
// at most a caller-chosen byte budget (one row larger than the budget gets
// a chunk of its own). Checkpoint files, the replication bootstrap
// (kReplSnapshot) and the SerializePublishedState fingerprint all carry
// exactly these chunk bytes, so a writer or a sender holds one chunk at a
// time and a reader loads each chunk as it arrives. A chunk is
//
//   [u32 seq][u8 final] [directory, in chunk 0 only] section*
//   directory := [u32 ntables] ([str name][u64 slots])*
//   section   := [u32 table][u64 first_slot][u32 count] slot{count}
//   slot      := [u8 live] [row, when live]
//
// Chunks are numbered from 0 and the last one is marked final. Sections
// walk the tables in directory order and each table's slots in order, so
// the loader can insist on the exact next (table, slot) and a missing,
// repeated or reordered chunk is an error, never a silent gap. Tombstones
// are kept slot-exactly (later WAL records address rows by slot), except
// *trailing* dead slots: a rolled-back insert grows the live slot array
// without reaching the log, so replay could not reproduce it — and nothing
// can ever reference it.

/// Chunk budget of checkpoint files and SerializePublishedState.
inline constexpr size_t kStateChunkBytes = 64u << 10;

/// \brief Encodes one pinned snapshot as a chunk sequence.
///
/// Holds a reference to `snapshot` (the caller keeps it pinned until
/// done()) and only cursor state, so encoding a table costs O(one chunk)
/// of memory whatever the table size.
class StateEncoder {
 public:
  StateEncoder(const DatabaseSchema& schema, const Snapshot& snapshot);

  /// Appends the next chunk to `*out` (which may already hold a frame
  /// header) using at most `max_bytes` bytes unless a single row needs
  /// more. Returns true when that chunk was the final one.
  bool AppendChunk(std::string* out, size_t max_bytes);
  bool done() const { return done_; }

 private:
  const DatabaseSchema& schema_;
  const Snapshot& snapshot_;
  /// Per table: slots to ship (trailing tombstones trimmed).
  std::vector<uint64_t> slots_;
  uint32_t seq_ = 0;
  size_t table_ = 0;
  uint64_t slot_ = 0;
  bool done_ = false;
};

/// \brief Loads a chunk sequence into fresh tables, chunk by chunk.
///
/// The tables are detached from any database until
/// Database::LoadReplicatedSnapshot installs them, so nothing of a partial
/// load is ever visible; dropping the loader discards it. Each table is
/// sized once (ReserveRows) from the directory in chunk 0. Obtain one from
/// Database::NewStateLoader.
class StateLoader {
 public:
  /// Loads the next chunk. Any malformed, out-of-order or schema-foreign
  /// chunk is an error and leaves the loader unusable.
  Status Apply(const char* data, size_t n);
  /// True once the final chunk loaded and every table got all its slots.
  bool complete() const { return complete_; }
  uint32_t chunks_applied() const { return next_seq_; }

 private:
  friend class Database;
  StateLoader(const DatabaseSchema* schema,
              std::vector<std::shared_ptr<Table>> tables)
      : schema_(schema), tables_(std::move(tables)) {}
  Status ApplyChunk(const char* data, size_t n);

  struct Target {
    Table* table = nullptr;
    uint64_t slots = 0;
    uint64_t next_slot = 0;
  };

  const DatabaseSchema* schema_;
  /// One fresh table per schema table, in schema order.
  std::vector<std::shared_ptr<Table>> tables_;
  /// The directory: per shipped table, where its slots go.
  std::vector<Target> targets_;
  size_t current_ = 0;  ///< directory index sections may address next
  uint32_t next_seq_ = 0;
  bool complete_ = false;
  bool failed_ = false;
};

/// \brief Writes a checkpoint file chunk by chunk: a temp file that
/// Commit() fsyncs and renames over `path`, so a crash mid-write never
/// leaves a half-written checkpoint. The file is the magic, one frame with
/// the epoch, then one [u32 len][u32 crc32] frame per state chunk.
class CheckpointWriter {
 public:
  static Result<std::unique_ptr<CheckpointWriter>> Create(
      const std::string& path, uint64_t epoch);
  /// Removes the temp file unless Commit() succeeded.
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Appends one state chunk (StateEncoder bytes) as a checksummed frame.
  Status Append(const char* chunk, size_t n);
  /// fsyncs the temp file, renames it to `path` and fsyncs the directory.
  Status Commit();

 private:
  CheckpointWriter(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  bool committed_ = false;
};

/// Streams checkpoint file `path` into `loader` one chunk at a time and
/// returns the checkpoint's epoch. Strict: checkpoints are written
/// atomically, so any damage or an incomplete chunk sequence is an error.
/// A missing file is NotFound.
Result<uint64_t> ReadCheckpointFile(const std::string& path,
                                    StateLoader* loader);

/// Crash-injection hook for the recovery crash-fuzz: a nonzero point makes
/// RecoverFrom raise SIGKILL at a chosen step of the torn-tail truncation
/// (1 = after ftruncate, before the log fsync — the window where a
/// non-durable truncation could resurrect the torn tail). 0 disables.
void SetRecoveryCrashPointForTesting(int point);

}  // namespace ufilter::relational

#endif  // UFILTER_RELATIONAL_WAL_H_
