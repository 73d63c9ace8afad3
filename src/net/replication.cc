#include "net/replication.h"

#include <algorithm>
#include <random>
#include <utility>

namespace ufilter::net {

namespace {

// Bound on writing one frame to a subscriber / one ack to the source; a
// peer that cannot take bytes within this window is treated as gone.
constexpr std::chrono::milliseconds kWriteTimeout{5000};
// Bound on the subscribe handshake (connect -> first frame).
constexpr std::chrono::milliseconds kHandshakeTimeout{5000};

std::chrono::steady_clock::time_point Deadline(std::chrono::milliseconds d) {
  return std::chrono::steady_clock::now() + d;
}

}  // namespace

// ---------------------------------------------------------------------------
// ReplicationSource
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ReplicationSource>> ReplicationSource::Start(
    relational::Database* db, obs::Registry* registry,
    ReplicationSourceOptions options) {
  if (options.wal_path.empty()) {
    return Status::InvalidArgument(
        "replication source needs a WAL to tail (wal_path is empty)");
  }
  if (!db->durability_enabled()) {
    return Status::InvalidArgument(
        "replication source requires durability: the epoch stream *is* the "
        "WAL");
  }
  auto listen = ListenTcp(options.port, options.backlog);
  UFILTER_RETURN_NOT_OK(listen.status());
  auto port = LocalPort(*listen);
  if (!port.ok()) {
    CloseFd(*listen);
    return port.status();
  }
  std::unique_ptr<ReplicationSource> src(new ReplicationSource(
      db, registry, std::move(options), *listen, *port));
  src->accept_thread_ = std::thread([s = src.get()] { s->AcceptLoop(); });
  return src;
}

ReplicationSource::ReplicationSource(relational::Database* db,
                                     obs::Registry* registry,
                                     ReplicationSourceOptions options,
                                     int listen_fd, uint16_t port)
    : db_(db),
      options_(std::move(options)),
      listen_fd_(listen_fd),
      port_(port),
      subscribers_(registry->GetGauge("repl_subscribers")),
      snapshots_shipped_(registry->GetCounter("repl_snapshots_shipped")),
      snapshot_chunks_shipped_(
          registry->GetCounter("repl_snapshot_chunks_shipped")),
      snapshot_bytes_shipped_(
          registry->GetCounter("repl_snapshot_bytes_shipped")),
      records_shipped_(registry->GetCounter("repl_records_shipped")),
      bytes_shipped_(registry->GetCounter("repl_bytes_shipped")),
      acked_epoch_(registry->GetGauge("repl_acked_epoch")),
      protocol_errors_(registry->GetCounter("repl_protocol_errors")) {}

ReplicationSource::~ReplicationSource() { Stop(); }

ReplicationSourceStats ReplicationSource::stats() const {
  ReplicationSourceStats s;
  s.subscribers = subscribers_->Value();
  s.snapshots_shipped = snapshots_shipped_->Value();
  s.snapshot_chunks_shipped = snapshot_chunks_shipped_->Value();
  s.snapshot_bytes_shipped = snapshot_bytes_shipped_->Value();
  s.records_shipped = records_shipped_->Value();
  s.bytes_shipped = bytes_shipped_->Value();
  s.acked_epoch = acked_epoch_->Value();
  s.protocol_errors = protocol_errors_->Value();
  return s;
}

void ReplicationSource::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    auto fd = AcceptWithTimeout(listen_fd_, /*timeout_ms=*/100);
    if (!fd.ok()) {
      if (fd.status().code() == StatusCode::kDeadlineExceeded) {
        ReapFinished();
        continue;
      }
      break;  // listening socket shut down
    }
    auto sub = std::make_unique<Subscriber>();
    sub->fd = *fd;
    Subscriber* raw = sub.get();
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      subs_.push_back(std::move(sub));
    }
    raw->thread = std::thread([this, raw] { ServeSubscriber(raw); });
  }
}

void ReplicationSource::ReapFinished() {
  std::vector<std::unique_ptr<Subscriber>> done;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (auto it = subs_.begin(); it != subs_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        done.push_back(std::move(*it));
        it = subs_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& sub : done) {
    if (sub->thread.joinable()) sub->thread.join();
    CloseFd(sub->fd);
  }
}

void ReplicationSource::ServeSubscriber(Subscriber* sub) {
  subscribers_->Add(1);
  Status st = ServeSubscriberImpl(sub->fd);
  if (st.code() == StatusCode::kParseError) protocol_errors_->Inc();
  subscribers_->Sub(1);
  ShutdownFd(sub->fd);
  sub->done.store(true, std::memory_order_release);
}

Status ReplicationSource::ServeSubscriberImpl(int fd) {
  // Handshake: the magic preamble plus exactly one kReplSubscribe frame.
  // kReplMaxFrameBytes is for the record batches this side sends; a
  // subscribe is tiny, so its reader keeps the request plane's cap.
  FrameReader frames(/*expect_magic=*/true, kDefaultMaxFrameBytes);
  auto handshake_deadline = Deadline(kHandshakeTimeout);
  std::string first;
  char buf[65536];
  while (true) {
    auto got = RecvSome(fd, buf, sizeof(buf), handshake_deadline);
    UFILTER_RETURN_NOT_OK(got.status());
    frames.Feed(buf, *got);
    auto next = frames.Next();
    UFILTER_RETURN_NOT_OK(next.status());
    if (next->has_value()) {
      first = *std::move(*next);
      break;
    }
  }
  auto type = PeekType(first);
  UFILTER_RETURN_NOT_OK(type.status());
  if (*type != MsgType::kReplSubscribe) {
    return Status::ParseError("replication handshake: expected subscribe");
  }
  auto sub = DecodeReplSubscribe(first);
  UFILTER_RETURN_NOT_OK(sub.status());
  // From here on the follower only ever sends kReplAck frames, so a
  // corrupt length prefix fails at its header rather than stalling the
  // reader until enough later acks arrive to fill the bogus length.
  frames.RequireFrameLength(kReplAckPayloadLen);

  uint64_t batch_cap = options_.max_batch_bytes;
  if (sub->max_batch_bytes > 0) {
    batch_cap = std::min(batch_cap, sub->max_batch_bytes);
  }

  // Bootstrap: a subscriber starting from nothing gets the full published
  // state at one pinned epoch, as a sequence of bounded chunks encoded
  // one at a time into a single reused frame buffer; everyone else
  // resumes from their own epoch and receives only the WAL suffix past it.
  uint64_t resume_epoch = sub->start_epoch;
  if (sub->start_epoch == 0) {
    auto snapshot = db_->OpenSnapshot();
    relational::StateEncoder encoder(db_->schema(), *snapshot);
    std::string frame;
    while (!encoder.done()) {
      BeginFrame(&frame);
      BeginReplSnapshot(&frame, snapshot->epoch());
      encoder.AppendChunk(&frame, kReplSnapshotChunkBytes);
      SealFrame(&frame);
      UFILTER_RETURN_NOT_OK(
          SendAll(fd, frame.data(), frame.size(), Deadline(kWriteTimeout)));
      snapshot_chunks_shipped_->Inc();
      snapshot_bytes_shipped_->Add(frame.size());
    }
    snapshots_shipped_->Inc();
    resume_epoch = snapshot->epoch();
  }

  // The tailer steps over everything the subscriber already holds by
  // record header, without reading those payloads.
  relational::WalTailer tailer(options_.wal_path, resume_epoch);
  auto last_send = std::chrono::steady_clock::now();
  bool sent_anything = false;
  while (!stop_.load(std::memory_order_acquire)) {
    // Everything published up to `seen_epoch` is in the WAL file once the
    // flush below returns; a later publish wakes the wait at the bottom.
    const uint64_t seen_epoch = db_->commit_epoch();
    // Make every record staged by the group-commit buffer visible to the
    // tailer; the fsync schedule is untouched (Flush, not Sync).
    UFILTER_RETURN_NOT_OK(db_->FlushWalToFile());
    auto polled = tailer.Poll(batch_cap);
    UFILTER_RETURN_NOT_OK(polled.status());
    // An empty poll means the file is drained up to seen_epoch; a
    // non-empty one may have stopped at the batch cap.
    const bool caught_up = polled->empty();

    ReplRecordsMsg msg;
    uint64_t batch_bytes = 0;
    for (auto& rec : *polled) {
      batch_bytes += rec.payload.size();
      msg.records.push_back(std::move(rec.payload));
    }

    auto now = std::chrono::steady_clock::now();
    bool heartbeat_due =
        !sent_anything || now - last_send >= options_.heartbeat_interval;
    if (!msg.records.empty() || heartbeat_due) {
      msg.primary_epoch = db_->commit_epoch();
      msg.primary_wal_bytes = tailer.known_file_bytes();
      msg.shipped_wal_bytes = tailer.offset();
      std::string frame = FramePayload(EncodeReplRecords(msg));
      UFILTER_RETURN_NOT_OK(
          SendAll(fd, frame.data(), frame.size(), Deadline(kWriteTimeout)));
      records_shipped_->Add(msg.records.size());
      bytes_shipped_->Add(batch_bytes);
      last_send = now;
      sent_anything = true;
    }

    // Drain whatever acks the follower has pushed back, without blocking:
    // this runs on every wake (publish or heartbeat), so repl_acked_epoch
    // is at most one heartbeat_interval stale.
    while (true) {
      auto got =
          RecvSome(fd, buf, sizeof(buf), std::chrono::steady_clock::now());
      if (!got.ok()) {
        if (got.status().code() == StatusCode::kDeadlineExceeded) break;
        return got.status();  // subscriber gone
      }
      frames.Feed(buf, *got);
      while (true) {
        auto next = frames.Next();
        UFILTER_RETURN_NOT_OK(next.status());
        if (!next->has_value()) break;
        auto t = PeekType(**next);
        UFILTER_RETURN_NOT_OK(t.status());
        if (*t != MsgType::kReplAck) {
          return Status::ParseError(
              "replication stream: follower sent a non-ack frame");
        }
        auto ack = DecodeReplAck(**next);
        UFILTER_RETURN_NOT_OK(ack.status());
        if (ack->applied_epoch > acked_epoch_->Value()) {
          acked_epoch_->Set(ack->applied_epoch);
        }
      }
    }

    // Caught up: sleep until the next publish, Stop(), or the next
    // heartbeat is due.
    if (caught_up) {
      db_->WaitForCommitAfter(seen_epoch,
                              last_send + options_.heartbeat_interval, &stop_);
    }
  }
  return Status::OK();
}

void ReplicationSource::Stop() {
  if (stop_.exchange(true)) {
    // Idempotent: the first caller did (or is doing) the teardown.
    if (accept_thread_.joinable()) return;
  }
  // Subscribers idle in WaitForCommitAfter see stop_ on this wake.
  db_->WakeCommitWaiters();
  ShutdownFd(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Subscriber>> subs;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    subs.swap(subs_);
  }
  for (auto& sub : subs) {
    ShutdownFd(sub->fd);
    if (sub->thread.joinable()) sub->thread.join();
    CloseFd(sub->fd);
  }
  if (listen_fd_ >= 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Follower
// ---------------------------------------------------------------------------

std::unique_ptr<Follower> Follower::Start(service::CheckService* service,
                                          relational::Database* db,
                                          FollowerOptions options) {
  std::unique_ptr<Follower> f(
      new Follower(service, db, std::move(options)));
  f->thread_ = std::thread([raw = f.get()] { raw->Run(); });
  return f;
}

Follower::Follower(service::CheckService* service, relational::Database* db,
                   FollowerOptions options)
    : service_(service),
      db_(db),
      options_(std::move(options)),
      jitter_(options_.jitter_seed != 0 ? options_.jitter_seed
                                        : std::random_device{}()),
      caught_up_at_(std::chrono::steady_clock::now()) {
  obs::Registry& reg = service_->registry();
  connects_ = reg.GetCounter("repl_connects");
  snapshots_loaded_ = reg.GetCounter("repl_snapshots_loaded");
  records_applied_ = reg.GetCounter("repl_records_applied");
  bytes_applied_ = reg.GetCounter("repl_bytes_applied");
  stale_skipped_ = reg.GetCounter("repl_stale_skipped");
  lag_epochs_ = reg.GetGauge("replication_lag_epochs");
  lag_bytes_ = reg.GetGauge("replication_lag_bytes");
  lag_ms_ = reg.GetGauge("replication_lag_ms");
  apply_ns_ = reg.GetHistogram("repl_apply_ns");
  applied_epoch_.store(db_->commit_epoch(), std::memory_order_release);
}

Follower::~Follower() { Stop(); }

FollowerStats Follower::stats() const {
  FollowerStats s;
  s.connects = connects_->Value();
  s.snapshots_loaded = snapshots_loaded_->Value();
  s.records_applied = records_applied_->Value();
  s.bytes_applied = bytes_applied_->Value();
  s.stale_skipped = stale_skipped_->Value();
  s.lag_epochs = lag_epochs_->Value();
  s.lag_bytes = lag_bytes_->Value();
  s.lag_ms = lag_ms_->Value();
  return s;
}

Status Follower::status() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return fatal_;
}

bool Follower::WaitForEpoch(uint64_t epoch,
                            std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(status_mu_);
  epoch_cv_.wait_for(lock, timeout, [&] {
    return applied_epoch() >= epoch ||
           stop_.load(std::memory_order_acquire) || !fatal_.ok();
  });
  return applied_epoch() >= epoch;
}

void Follower::SetAppliedEpoch(uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    applied_epoch_.store(epoch, std::memory_order_release);
  }
  epoch_cv_.notify_all();
}

Status Follower::SetFatal(Status st) {
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    fatal_ = st;
  }
  epoch_cv_.notify_all();
  return st;
}

std::chrono::milliseconds Follower::BackoffDelay(int attempt) {
  int64_t ceil_ms = options_.backoff_base.count();
  for (int i = 1; i < attempt && ceil_ms < options_.backoff_max.count(); ++i) {
    ceil_ms *= 2;
  }
  ceil_ms = std::min<int64_t>(ceil_ms, options_.backoff_max.count());
  std::uniform_int_distribution<int64_t> dist(0, std::max<int64_t>(ceil_ms, 1));
  return std::chrono::milliseconds(dist(jitter_));
}

void Follower::Run() {
  int attempt = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    uint64_t connects_before = connects_->Value();
    Status st = RunOnce();
    (void)st;  // why the connection ended; reconnecting is the remedy
    {
      std::lock_guard<std::mutex> lock(status_mu_);
      if (!fatal_.ok()) return;  // apply failed: convergence lost, stop
    }
    if (stop_.load(std::memory_order_acquire)) return;
    // A connection that got as far as subscribing resets the backoff.
    attempt = connects_->Value() > connects_before ? 1 : attempt + 1;
    std::this_thread::sleep_for(BackoffDelay(attempt));
  }
}

Status Follower::RunOnce() {
  auto fd = ConnectTcp(options_.host, options_.port, options_.connect_timeout);
  UFILTER_RETURN_NOT_OK(fd.status());
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    fd_.store(*fd, std::memory_order_release);
  }
  auto cleanup = [this] {
    // A bootstrap cut short is dropped whole (its temp checkpoint file
    // too); the next subscription starts it again from epoch 0.
    load_.reset();
    load_file_.reset();
    std::lock_guard<std::mutex> lock(status_mu_);
    CloseFd(fd_.exchange(-1, std::memory_order_acq_rel));
  };
  auto fail = [&](Status st) {
    cleanup();
    return st;
  };

  // Subscribe: magic preamble, then resume from our own commit epoch — 0
  // (a fresh replica) asks for a snapshot bootstrap.
  Status st = SendAll(*fd, kNetMagic, kNetMagicLen,
                      Deadline(options_.connect_timeout));
  if (!st.ok()) return fail(st);
  ReplSubscribeMsg sub;
  sub.start_epoch = db_->commit_epoch();
  sub.max_batch_bytes = options_.max_batch_bytes;
  std::string frame = FramePayload(EncodeReplSubscribe(sub));
  st = SendAll(*fd, frame.data(), frame.size(), Deadline(kWriteTimeout));
  if (!st.ok()) return fail(st);
  connects_->Inc();

  FrameReader frames(/*expect_magic=*/false, kReplMaxFrameBytes);
  char buf[65536];
  auto last_frame = std::chrono::steady_clock::now();
  while (!stop_.load(std::memory_order_acquire)) {
    auto got = RecvSome(*fd, buf, sizeof(buf),
                        Deadline(std::chrono::milliseconds(100)));
    if (!got.ok()) {
      if (got.status().code() != StatusCode::kDeadlineExceeded) {
        return fail(got.status());  // peer gone / reset
      }
      if (std::chrono::steady_clock::now() - last_frame >
          options_.dead_after) {
        return fail(Status::DeadlineExceeded(
            "replication stream silent past dead_after: reconnecting"));
      }
      continue;
    }
    frames.Feed(buf, *got);
    while (true) {
      auto next = frames.Next();
      if (!next.ok()) return fail(next.status());  // corrupt stream
      if (!next->has_value()) break;
      last_frame = std::chrono::steady_clock::now();
      auto type = PeekType(**next);
      if (!type.ok()) return fail(type.status());
      switch (*type) {
        case MsgType::kReplSnapshot:
          st = HandleSnapshot(**next);
          break;
        case MsgType::kReplRecords:
          st = HandleRecords(**next);
          break;
        default:
          st = Status::ParseError(
              "unexpected frame type on the replication stream");
          break;
      }
      if (!st.ok()) return fail(st);
    }
  }
  cleanup();
  return Status::OK();
}

Status Follower::HandleSnapshot(const std::string& payload) {
  auto chunk = DecodeReplSnapshot(payload);
  UFILTER_RETURN_NOT_OK(chunk.status());
  if (load_ == nullptr) {
    load_ = db_->NewStateLoader();
    load_epoch_ = chunk->epoch;
    // Persist the bootstrap before publishing it: a follower killed right
    // after the load recovers from this checkpoint locally and resumes,
    // instead of re-shipping the whole state.
    if (!options_.checkpoint_path.empty()) {
      UFILTER_ASSIGN_OR_RETURN(
          load_file_, relational::CheckpointWriter::Create(
                          options_.checkpoint_path, load_epoch_));
    }
  } else if (chunk->epoch != load_epoch_) {
    return Status::ParseError("bootstrap chunk of another snapshot epoch");
  }
  Status st = load_->Apply(chunk->data, chunk->size);
  if (!st.ok()) return SetFatal(st);
  if (load_file_ != nullptr) {
    UFILTER_RETURN_NOT_OK(load_file_->Append(chunk->data, chunk->size));
  }
  if (!load_->complete()) return Status::OK();

  // The final chunk: only now does the load become the published state.
  if (load_file_ != nullptr) {
    UFILTER_RETURN_NOT_OK(load_file_->Commit());
    load_file_.reset();
  }
  st = db_->LoadReplicatedSnapshot(load_epoch_, std::move(load_));
  if (!st.ok()) return SetFatal(st);
  snapshots_loaded_->Inc();
  SetAppliedEpoch(load_epoch_);
  std::string ack = FramePayload(EncodeReplAck({load_epoch_}));
  int fd = fd_.load(std::memory_order_acquire);
  return SendAll(fd, ack.data(), ack.size(), Deadline(kWriteTimeout));
}

Status Follower::HandleRecords(const std::string& payload) {
  if (load_ != nullptr) {
    return Status::ParseError("records before the bootstrap's final chunk");
  }
  auto msg = DecodeReplRecords(payload);
  UFILTER_RETURN_NOT_OK(msg.status());
  for (const std::string& rec_payload : msg->records) {
    auto record = relational::DecodeWalPayload(rec_payload);
    UFILTER_RETURN_NOT_OK(record.status());
    if (record->epoch <= db_->commit_epoch()) {
      // Resume overlap: the source replayed an epoch we already hold
      // (e.g. an ack lost to a reconnect). Never re-applied, never
      // double-counted.
      stale_skipped_->Inc();
      continue;
    }
    auto t0 = std::chrono::steady_clock::now();
    Status st = service_->ApplyReplicatedEpoch(*record);
    auto t1 = std::chrono::steady_clock::now();
    apply_ns_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    if (!st.ok()) return SetFatal(st);
    records_applied_->Inc();
    bytes_applied_->Add(rec_payload.size());
    SetAppliedEpoch(record->epoch);
  }

  // Lag gauges come from the primary's own counters stamped on the frame,
  // so they are meaningful even when this batch was empty (a heartbeat).
  uint64_t local_epoch = db_->commit_epoch();
  uint64_t lag_epochs = msg->primary_epoch > local_epoch
                            ? msg->primary_epoch - local_epoch
                            : 0;
  uint64_t lag_bytes = msg->primary_wal_bytes > msg->shipped_wal_bytes
                           ? msg->primary_wal_bytes - msg->shipped_wal_bytes
                           : 0;
  auto now = std::chrono::steady_clock::now();
  if (lag_epochs == 0) {
    caught_up_at_ = now;
    lag_ms_->Set(0);
  } else {
    lag_ms_->Set(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - caught_up_at_)
            .count()));
  }
  lag_epochs_->Set(lag_epochs);
  lag_bytes_->Set(lag_bytes);

  std::string ack = FramePayload(
      EncodeReplAck({applied_epoch_.load(std::memory_order_acquire)}));
  int fd = fd_.load(std::memory_order_acquire);
  return SendAll(fd, ack.data(), ack.size(), Deadline(kWriteTimeout));
}

void Follower::Stop() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    int fd = fd_.load(std::memory_order_acquire);
    if (fd >= 0) ShutdownFd(fd);
  }
  epoch_cv_.notify_all();  // WaitForEpoch callers return on stop_
  if (thread_.joinable()) thread_.join();
}

}  // namespace ufilter::net
