// The wire protocol of the network front end: a length-prefixed,
// CRC-framed binary protocol reusing the WAL's framing discipline
// (src/relational/wal.h). A connection is
//
//   [8-byte magic "UFNET001"]  (client -> server, once)
//   then frames in both directions, each
//   [u32 payload_len][u32 crc32(payload)][payload]   (little-endian)
//
// and every payload is one message: a type byte followed by fixed-width
// little-endian fields and u32-length-prefixed strings. The CRC catches
// corruption; the length prefix makes torn frames detectable (a frame is
// either completely parsed or the connection is dead — there is no
// resynchronization, exactly like a torn WAL tail). Decoders are strict:
// short, overlong or type-confused payloads are ParseError, never UB —
// these bytes arrive off a socket from arbitrary peers.
//
// Deadlines travel as a *relative* millisecond budget (clock-skew free):
// the client computes the remaining budget when it serializes the request,
// the server rebases it onto its own steady clock at decode. kNoDeadlineMs
// means unbounded.
#ifndef UFILTER_NET_FRAME_H_
#define UFILTER_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"

namespace ufilter::net {

/// Connection preamble; versioned like the WAL's "UFWAL001".
inline constexpr char kNetMagic[] = "UFNET001";
inline constexpr size_t kNetMagicLen = 8;

/// Frame header: payload length + CRC32 of the payload.
inline constexpr size_t kFrameHeaderLen = 8;

/// Default ceiling on a single frame (update texts are small; anything
/// bigger is a corrupt length prefix or an abusive peer).
inline constexpr size_t kDefaultMaxFrameBytes = 1u << 20;

/// Ceiling for replication-stream frames: a kReplRecords batch carries many
/// WAL payloads, so subscription connections accept a much larger frame
/// than the request/response plane. It is input validation only — state
/// size has no ceiling, because the bootstrap ships the state as a
/// sequence of kReplSnapshotChunkBytes chunks, one per frame.
inline constexpr size_t kReplMaxFrameBytes = 64u << 20;

/// Budget of one bootstrap state chunk (relational::StateEncoder), and so
/// of a kReplSnapshot payload past its kReplSnapshotHeaderLen header; only
/// a single row larger than this gets a larger chunk of its own.
inline constexpr size_t kReplSnapshotChunkBytes = 64u << 10;
/// kReplSnapshot payload header: type byte + the snapshot's epoch.
inline constexpr size_t kReplSnapshotHeaderLen = 1 + 8;

/// Relative-deadline sentinel: no deadline.
inline constexpr uint32_t kNoDeadlineMs = 0xFFFFFFFFu;

enum class MsgType : uint8_t {
  kCheckRequest = 1,
  kCheckResponse = 2,
  kPing = 3,
  kPong = 4,
  // 5 and 6 were a fixed-size stats summary, retired in favour of
  // kMetrics; PeekType rejects them like any unknown type byte.
  /// Full metric-registry scrape (counters, gauges, histograms) — the
  /// wire form of obs::Registry::Collect(): every service, transport,
  /// engine, WAL, columnar, plan-cache and MVCC series plus the latency
  /// histograms.
  kMetricsRequest = 7,
  kMetricsResponse = 8,
  /// Replication plane (epoch-stream snapshot shipping). A follower sends
  /// kReplSubscribe once after the magic; the primary answers with an
  /// optional bootstrap (a sequence of kReplSnapshot chunks, the last one
  /// marked final) followed by a stream of kReplRecords batches (empty
  /// batch = heartbeat); the follower acks applied epochs with kReplAck so
  /// the primary can export subscriber lag.
  kReplSubscribe = 9,
  kReplSnapshot = 10,
  kReplRecords = 11,
  kReplAck = 12,
};

inline constexpr uint8_t kMaxMsgType =
    static_cast<uint8_t>(MsgType::kReplAck);

/// The server's answer class for one request. Distinct from CheckOutcome
/// because the wire must also express service-level dispositions (shed,
/// draining, deadline exceeded) that certify the request never executed.
enum class Verdict : uint8_t {
  kExecuted = 0,
  kInvalid = 1,
  kUntranslatable = 2,
  kDataConflict = 3,
  kNotRun = 4,
  /// The deadline expired before execution (admission reject or queue
  /// purge). Never executed; always safe to retry.
  kDeadlineExceeded = 5,
  /// Load shed: the admission queue stayed full for the request's whole
  /// deadline budget. Never executed; retry after `retry_after_ms`.
  kShed = 6,
  /// The server is draining for shutdown. Never executed.
  kDraining = 7,
  /// Protocol/internal failure while serving the request.
  kError = 8,
  /// Read-only follower refusing an apply: the caller must re-issue the
  /// request against the primary named in `message`. Never executed here,
  /// but NOT retry-safe against this server — retrying the same follower
  /// would loop forever.
  kRedirectToPrimary = 9,
};

const char* VerdictName(Verdict v);

/// True for verdicts that certify the request was never executed and can
/// be retried even when it was an apply (shed / draining / deadline).
bool VerdictIsRetrySafe(Verdict v);

struct CheckRequestMsg {
  uint64_t request_id = 0;
  /// Remaining deadline budget in ms (relative); kNoDeadlineMs = none.
  uint32_t deadline_ms = kNoDeadlineMs;
  bool apply = false;
  /// DataCheckStrategy as its enum integer (kInternal/kHybrid/kOutside).
  uint8_t strategy = 2;
  std::string update_text;
};

struct CheckResponseMsg {
  uint64_t request_id = 0;
  Verdict verdict = Verdict::kError;
  /// StatusCode of the report's error (kOk when none).
  uint8_t status_code = 0;
  std::string message;
  int64_t rows_affected = 0;
  /// Advisory backoff for kShed/kDraining; 0 otherwise.
  uint32_t retry_after_ms = 0;
};

/// One metric in a kMetricsResponse: the wire form of obs::MetricSample.
/// Histogram buckets travel sparse ([bucket-index, count] pairs) — latency
/// distributions concentrate in a handful of buckets, so this is far
/// smaller than 64 fixed u64s per histogram.
struct WireMetric {
  std::string name;
  /// obs::MetricKind as its enum integer (0 counter, 1 gauge, 2 histogram).
  uint8_t kind = 0;
  /// Counter / gauge value (0 for histograms).
  uint64_t value = 0;
  uint64_t hist_count = 0;
  uint64_t hist_sum = 0;
  uint64_t hist_max = 0;
  /// Non-empty buckets only: (bucket index < obs::kHistogramBuckets, count).
  std::vector<std::pair<uint8_t, uint64_t>> hist_buckets;
};

struct MetricsMsg {
  std::vector<WireMetric> metrics;

  /// Finds a metric by exact name; nullptr when absent.
  const WireMetric* Find(const std::string& name) const;
};

/// RegistrySnapshot <-> MetricsMsg: the server encodes its Collect() with
/// the first, the scraper reconstructs percentiles/renders Prometheus text
/// with the second. Round-tripping is lossless (tests/net/frame_test.cc).
MetricsMsg MetricsFromSnapshot(const obs::RegistrySnapshot& snapshot);
obs::RegistrySnapshot SnapshotFromMetrics(const MetricsMsg& msg);

// --- Replication-plane messages ------------------------------------------

/// Follower -> primary, once per connection: start (or resume) an epoch
/// stream. start_epoch is the last epoch the follower has durably applied;
/// 0 means "bootstrap me" and the primary answers with kReplSnapshot chunks
/// before any records.
struct ReplSubscribeMsg {
  uint64_t start_epoch = 0;
  /// Soft cap on the WAL-payload bytes per kReplRecords batch; 0 = primary
  /// default. A hint, not a contract — one oversized record still ships.
  uint64_t max_batch_bytes = 0;
};

/// Primary -> follower bootstrap, one frame per state chunk: the published
/// state as of `epoch`, as the chunk sequence of relational::StateEncoder
/// (numbered, the last one marked final — the same bytes a checkpoint file
/// holds). Sent only for start_epoch == 0 subscriptions. A decoded chunk
/// views into the payload it came from.
struct ReplSnapshotChunk {
  uint64_t epoch = 0;
  const char* data = nullptr;
  size_t size = 0;
};

/// Primary -> follower: a batch of WAL record payloads in strictly
/// increasing epoch order. `primary_epoch` is the primary's commit epoch at
/// send time (lag is primary_epoch - last applied); `primary_wal_bytes` the
/// primary's WAL offset after the last record in the batch (byte lag). An
/// empty batch is a heartbeat: it refreshes lag while the primary idles.
struct ReplRecordsMsg {
  uint64_t primary_epoch = 0;
  uint64_t primary_wal_bytes = 0;
  /// Primary WAL offset just past the last record in this batch (equal to
  /// primary_wal_bytes when the batch drains the log). The follower's byte
  /// lag is primary_wal_bytes - shipped_wal_bytes.
  uint64_t shipped_wal_bytes = 0;
  /// Each entry is one EncodeWalPayload blob (epoch + redo ops), decodable
  /// with relational::DecodeWalPayload.
  std::vector<std::string> records;
};

/// Follower -> primary: everything up to applied_epoch is applied and
/// published locally.
struct ReplAckMsg {
  uint64_t applied_epoch = 0;
};

/// Encoded size of a kReplAck payload (type byte + applied_epoch): the
/// only frame length a replication source accepts after the handshake.
inline constexpr size_t kReplAckPayloadLen = 1 + 8;

// --- Message codecs (payloads, no framing) -------------------------------

std::string EncodeCheckRequest(const CheckRequestMsg& msg);
std::string EncodeCheckResponse(const CheckResponseMsg& msg);
std::string EncodePing(uint64_t request_id);
std::string EncodePong(uint64_t request_id);
std::string EncodeMetricsRequest();
std::string EncodeMetricsResponse(const MetricsMsg& msg);
std::string EncodeReplSubscribe(const ReplSubscribeMsg& msg);
/// Appends a kReplSnapshot header to `frame` (after BeginFrame); the
/// caller appends one state chunk and seals the frame.
void BeginReplSnapshot(std::string* frame, uint64_t epoch);
std::string EncodeReplRecords(const ReplRecordsMsg& msg);
std::string EncodeReplAck(const ReplAckMsg& msg);

Result<MsgType> PeekType(const std::string& payload);
Result<CheckRequestMsg> DecodeCheckRequest(const std::string& payload);
Result<CheckResponseMsg> DecodeCheckResponse(const std::string& payload);
/// Decodes a kPing or kPong payload to its request id.
Result<uint64_t> DecodePingPong(const std::string& payload);
Result<MetricsMsg> DecodeMetricsResponse(const std::string& payload);
Result<ReplSubscribeMsg> DecodeReplSubscribe(const std::string& payload);
Result<ReplSnapshotChunk> DecodeReplSnapshot(const std::string& payload);
Result<ReplRecordsMsg> DecodeReplRecords(const std::string& payload);
Result<ReplAckMsg> DecodeReplAck(const std::string& payload);

// --- Framing -------------------------------------------------------------

/// Wraps a payload as [len][crc][payload], ready for the socket.
std::string FramePayload(const std::string& payload);

/// In-place framing, for a payload encoded straight into a reused buffer:
/// BeginFrame clears `frame` down to a header placeholder, SealFrame fills
/// the header in for everything appended since.
void BeginFrame(std::string* frame);
void SealFrame(std::string* frame);

/// \brief Incremental frame parser over an arbitrary byte stream.
///
/// Feed() whatever the socket delivered (any chunking — the chaos proxy
/// tears frames mid-length-prefix on purpose); Next() yields complete
/// payloads in order, nullopt when more bytes are needed, and a ParseError
/// status on corruption (bad magic, CRC mismatch, absurd length). After an
/// error the stream is unrecoverable by design — drop the connection.
class FrameReader {
 public:
  /// `expect_magic`: the first kNetMagicLen bytes must be kNetMagic
  /// (server side of a fresh connection).
  explicit FrameReader(bool expect_magic = false,
                       size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : magic_pending_(expect_magic), max_frame_(max_frame_bytes) {}

  void Feed(const char* data, size_t n) { buf_.append(data, n); }

  /// From now on every payload must be exactly `len` bytes: any other
  /// length prefix is a ParseError as soon as the header arrives, instead
  /// of a wait for a body the peer never meant to send.
  void RequireFrameLength(size_t len) { exact_frame_ = len; }

  /// One complete payload, nullopt (need more bytes), or ParseError.
  Result<std::optional<std::string>> Next();

  /// Bytes buffered but not yet consumed (torn-frame visibility).
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  /// Drops the consumed prefix once it dominates the buffer, so a
  /// long-lived connection never grows its buffer without bound.
  void Compact() {
    if (pos_ > 4096 && pos_ >= buf_.size() / 2) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
  }

  std::string buf_;
  size_t pos_ = 0;
  bool magic_pending_;
  size_t max_frame_;
  /// Required payload length; 0 = any length up to max_frame_.
  size_t exact_frame_ = 0;
};

}  // namespace ufilter::net

#endif  // UFILTER_NET_FRAME_H_
