#include "src/net/client.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>

#include "src/common/contention.h"
#include "src/common/histogram.h"
#include "src/common/io_executor.h"

namespace aft {
namespace net {

namespace {

using SteadyClock = std::chrono::steady_clock;

bool IsTransportError(const Status& status) {
  return status.code() == StatusCode::kUnavailable || status.code() == StatusCode::kTimeout;
}

Duration TimeLeft(SteadyClock::time_point deadline) {
  return std::chrono::duration_cast<Duration>(deadline - SteadyClock::now());
}

// +1 on construction, -1 on destruction (the aft_net_client_rpcs_inflight
// gauge); tolerates a null gauge.
class ScopedGaugeDelta {
 public:
  explicit ScopedGaugeDelta(obs::Gauge* gauge) : gauge_(gauge) {
    if (gauge_ != nullptr) {
      gauge_->Add(1);
    }
  }
  ~ScopedGaugeDelta() {
    if (gauge_ != nullptr) {
      gauge_->Sub(1);
    }
  }
  ScopedGaugeDelta(const ScopedGaugeDelta&) = delete;
  ScopedGaugeDelta& operator=(const ScopedGaugeDelta&) = delete;

 private:
  obs::Gauge* gauge_;
};

// Encodes the request into arena segments and seals the frame (header + CRC,
// trace id baked in). Done ONCE per API call; Call re-sends the sealed frame
// verbatim on every retry attempt.
template <typename Request>
Result<FrameBytes> SealRequest(MessageType type, const Request& request, uint64_t trace_id = 0) {
  ArenaWriter writer;
  request.SerializeTo(writer);
  return SealFrame(type, std::move(writer).TakeBuffer(), trace_id);
}

}  // namespace

Duration BackoffWithJitter(Duration initial_backoff, Duration max_backoff, int attempt,
                           Rng& rng) {
  if (initial_backoff <= Duration::zero() || max_backoff <= Duration::zero()) {
    return Duration::zero();
  }
  // Grow the ceiling multiplicatively, stopping at the cap (also prevents
  // overflow for large attempt counts).
  Duration ceiling = initial_backoff;
  for (int i = 0; i < attempt && ceiling < max_backoff; ++i) {
    ceiling *= 2;
  }
  ceiling = std::min(ceiling, max_backoff);
  // Full jitter: uniform over [0, ceiling] — decorrelates the retry storms
  // of many clients that failed at the same instant.
  return Duration(rng.Below(static_cast<uint64_t>(ceiling.count()) + 1));
}

RemoteAftClient::RemoteAftClient(std::vector<NetEndpoint> endpoints,
                                 RemoteAftClientOptions options)
    : options_(options), rng_(options.jitter_seed) {
  const size_t width = std::max<size_t>(options_.connections_per_endpoint, 1);
  pools_.reserve(endpoints.size());
  for (NetEndpoint& endpoint : endpoints) {
    EndpointPool pool;
    pool.channels.reserve(width);
    for (size_t i = 0; i < width; ++i) {
      pool.channels.push_back(std::make_unique<Channel>(endpoint));
    }
    pools_.push_back(std::move(pool));
  }
  auto& reg = obs::MetricsRegistry::Global();
  metrics_.rpcs_sent = reg.GetCounter("aft_net_client_rpcs_sent_total", "RPC frames sent");
  metrics_.retries = reg.GetCounter("aft_net_client_retries_total", "RPC attempts after the first");
  metrics_.reconnects =
      reg.GetCounter("aft_net_client_reconnects_total", "Pooled connections re-dialed");
  metrics_.fanouts =
      reg.GetCounter("aft_net_client_fanouts_total", "Batched calls split over pool stripes");
  metrics_.inflight =
      reg.GetGauge("aft_net_client_rpcs_inflight", "Client RPCs currently awaiting a response");
  for (uint8_t t = 1; t < metrics_.rpc_latency.size(); ++t) {
    const auto type = static_cast<MessageType>(t);
    if (!IsKnownMessageType(type)) {
      continue;
    }
    metrics_.rpc_latency[t] = reg.GetHistogram(
        "aft_net_client_rpc_latency_ms", "Client-observed RPC latency incl. retries (ms)",
        DefaultLatencyBoundariesMs(), {{"method", std::string(MessageTypeName(type))}});
  }
}

RemoteAftClient::~RemoteAftClient() = default;

size_t RemoteAftClient::StripeForThisThread() const {
  // Stable per thread, so one caller's request/response pairs reuse one warm
  // connection. Threads take consecutive numbers from a process-wide counter,
  // so N threads started together land on N distinct stripes of a width-N
  // pool; a hash of the thread id does not spread them (thread ids are
  // stack addresses, alike modulo small widths).
  static std::atomic<size_t> next_thread{0};
  thread_local const size_t stripe = next_thread.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

void RemoteAftClient::FailChannelLocked(Channel& channel, const Status& status) {
  // Shutdown, not Close: the reader may be blocked in recv on this fd, and a
  // sender may be mid-write. shutdown(2) wakes both; the fd is recycled by
  // the next dialer once the reader has drained out.
  channel.socket.Shutdown();
  channel.connected = false;
  if (!channel.reader_active) {
    channel.reader.Reset();
  }
  for (auto& waiter : channel.waiters) {
    if (!waiter->done) {
      waiter->status = status;
      waiter->done = true;
    }
  }
  channel.waiters.clear();
  channel.cv.NotifyAll();
}

void RemoteAftClient::FailChannelIfOrphanedLocked(Channel& channel) {
  if (!channel.connected || channel.reader_active || channel.waiters.empty()) {
    return;  // A reader is draining, or there is nothing queued to drain.
  }
  for (const auto& waiter : channel.waiters) {
    if (!waiter->done && !waiter->abandoned) {
      return;  // A live waiter remains; it will take the reader role.
    }
  }
  // Every queued waiter's caller has returned. Nobody will ever read their
  // responses, so the slots would stay occupied until max_inflight new calls
  // wedge behind them. Tear the stream down; the next call re-dials clean.
  FailChannelLocked(channel,
                    Status::Unavailable("connection to " + channel.endpoint.ToString() +
                                        " dropped: every in-flight call abandoned"));
}

void RemoteAftClient::RunReader(Channel& channel, MutexLock& lock,
                                const std::shared_ptr<Waiter>& own,
                                const SteadyClock::time_point deadline) {
  while (channel.connected && !own->done && !channel.waiters.empty()) {
    const Duration left = TimeLeft(deadline);
    if (left <= Duration::zero()) {
      return;  // Caller abandons its slot; a follower takes the reader role.
    }
    // FIFO matching: the head of the queue owns the next response frame.
    const std::shared_ptr<Waiter> front = channel.waiters.front();
    (void)channel.socket.SetRecvTimeout(left);
    lock.Unlock();
    Frame frame;
    Status read = channel.reader.Next(channel.socket, &frame);
    lock.Lock();
    if (!channel.connected) {
      return;  // Torn down while we read; every waiter already failed.
    }
    if (read.ok() && frame.type != ResponseType(front->expected)) {
      // A reply of the wrong type means the stream is out of sync; the only
      // safe recovery is a fresh connection.
      read = Status::Unavailable(std::string("response type mismatch: expected ") +
                                 std::string(MessageTypeName(ResponseType(front->expected))) +
                                 ", got " + std::string(MessageTypeName(frame.type)));
    }
    if (!read.ok()) {
      channel.reader.Reset();
      FailChannelLocked(channel, read);
      return;
    }
    channel.waiters.pop_front();
    // An abandoned head still consumed its response (keeping the stream in
    // sync); the payload just has no one left to read it.
    front->response = std::move(frame.payload);
    front->done = true;
    channel.cv.NotifyAll();
  }
}

Result<std::string> RemoteAftClient::CallOnce(Channel& channel, const FrameBytes& request,
                                              Duration remaining) {
  const SteadyClock::time_point deadline = SteadyClock::now() + remaining;
  MutexLock lock(channel.mu);
  // 1. Ensure a live connection. A reader may still be draining a torn
  //    stream; the fd can only be closed + re-dialed once it has exited.
  while (!channel.connected) {
    const Duration left = TimeLeft(deadline);
    if (left <= Duration::zero()) {
      return Status::Timeout("call deadline exceeded before attempt to " +
                             channel.endpoint.ToString());
    }
    if (channel.reader_active) {
      channel.cv.WaitFor(lock, left);
      continue;
    }
    channel.socket.Close();
    channel.reader.Reset();  // Bytes left from the torn stream are not ours.
    auto socket = TcpConnect(channel.endpoint, std::min(left, options_.connect_timeout));
    if (!socket.ok()) {
      return socket.status();
    }
    channel.socket = std::move(socket).value();
    (void)channel.socket.SetNoDelay();
    channel.connected = true;
    if (channel.ever_connected) {
      stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
      metrics_.reconnects->Increment();
    }
    channel.ever_connected = true;
  }
  // 2. Bounded pipelining: wait for an in-flight slot. A sampled queue-
  //    contention site: when the bounded pipeline is the bottleneck,
  //    /debug/contention ranks "client.pipeline" against server-side locks.
  const size_t max_inflight = std::max<size_t>(options_.max_inflight, 1);
  if (channel.waiters.size() >= max_inflight) {
    static contention::ContentionSite* const pipeline_site =
        contention::QueueSite("client.pipeline");
    const bool sampled = contention::ShouldSample();
    const SteadyClock::time_point slot_wait_start = SteadyClock::now();
    while (channel.connected && channel.waiters.size() >= max_inflight) {
      const Duration left = TimeLeft(deadline);
      if (left <= Duration::zero()) {
        return Status::Timeout("call deadline exceeded awaiting pipeline slot to " +
                               channel.endpoint.ToString());
      }
      channel.cv.WaitFor(lock, left);
    }
    if (sampled) {
      pipeline_site->RecordWait(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                               slot_wait_start)
              .count()));
    }
  }
  if (!channel.connected) {
    return Status::Unavailable("connection to " + channel.endpoint.ToString() +
                               " torn down while awaiting pipeline slot");
  }
  // 3. Send. The write runs under the lock, so the send order and the
  //    waiter-queue order are the same order — the FIFO invariant. The frame
  //    was sealed by the caller; this scatter-gathers its header + payload
  //    segments into sendmsg without touching the bytes.
  const Duration send_left = TimeLeft(deadline);
  if (send_left <= Duration::zero()) {
    return Status::Timeout("call deadline exceeded before send to " +
                           channel.endpoint.ToString());
  }
  (void)channel.socket.SetSendTimeout(send_left);
  stats_.rpcs_sent.fetch_add(1, std::memory_order_relaxed);
  metrics_.rpcs_sent->Increment();
  const Status sent = WriteFrameBytes(channel.socket, request);
  if (!sent.ok()) {
    // A partial send leaves the stream unframed: fail everything in flight.
    FailChannelLocked(channel, sent);
    return sent;
  }
  auto waiter = std::make_shared<Waiter>();
  waiter->expected = request.type;
  channel.waiters.push_back(waiter);
  // 4. Wait for our response: become the reader when the role is free,
  //    otherwise follow until notified (or our deadline expires).
  while (!waiter->done) {
    // Deadline first, BEFORE any claim on the reader role: an expired
    // claimer would bounce straight off RunReader's own deadline check and
    // spin claim/release forever with the mutex held, wedging the channel.
    const Duration left = TimeLeft(deadline);
    if (left <= Duration::zero()) {
      // Abandon in place: the slot stays queued so the reader still matches
      // our (late) response to it and the stream stays in sync.
      waiter->abandoned = true;
      FailChannelIfOrphanedLocked(channel);
      return Status::Timeout("call deadline exceeded awaiting response from " +
                             channel.endpoint.ToString());
    }
    if (!channel.reader_active) {
      channel.reader_active = true;
      RunReader(channel, lock, waiter, deadline);
      channel.reader_active = false;
      // Our exit may leave only abandoned waiters behind (e.g. our own
      // response arrived after a follower abandoned); nobody else will
      // become the reader for them, so fail the channel now if so.
      FailChannelIfOrphanedLocked(channel);
      channel.cv.NotifyAll();
      continue;
    }
    channel.cv.WaitFor(lock, left);
  }
  if (!waiter->status.ok()) {
    return waiter->status;
  }
  return std::move(waiter->response);
}

Result<std::string> RemoteAftClient::Call(size_t endpoint, const FrameBytes& request) {
  return CallOnStripe(endpoint, StripeForThisThread(), request);
}

Result<std::string> RemoteAftClient::CallOnStripe(size_t endpoint, size_t stripe,
                                                  const FrameBytes& request) {
  if (endpoint >= pools_.size()) {
    return Status::InvalidArgument("endpoint index out of range");
  }
  const uint8_t type_index = static_cast<uint8_t>(request.type);
  obs::ScopedHistogramTimer latency(
      type_index < metrics_.rpc_latency.size() ? metrics_.rpc_latency[type_index] : nullptr);
  const ScopedGaugeDelta inflight(metrics_.inflight);
  EndpointPool& pool = pools_[endpoint];
  Channel& channel = *pool.channels[stripe % pool.channels.size()];
  const SteadyClock::time_point deadline = SteadyClock::now() + options_.call_timeout;
  Status last = Status::Timeout("call budget exhausted before first attempt");
  const int max_attempts = std::max(options_.max_attempts, 1);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      stats_.retries.fetch_add(1, std::memory_order_relaxed);
      metrics_.retries->Increment();
    }
    Result<std::string> payload = CallOnce(channel, request, TimeLeft(deadline));
    if (payload.ok() || !IsTransportError(payload.status())) {
      return payload;
    }
    last = payload.status();
    // Full-jitter capped exponential backoff, never sleeping past the
    // call deadline.
    const Duration sleep = [&] {
      MutexLock lock(rng_mu_);
      return BackoffWithJitter(options_.initial_backoff, options_.max_backoff, attempt, rng_);
    }();
    if (TimeLeft(deadline) <= sleep) {
      break;
    }
    if (sleep > Duration::zero()) {
      std::this_thread::sleep_for(sleep);
    }
  }
  return Status(last.code(),
                "rpc to " + channel.endpoint.ToString() + " failed after retries: " + last.message());
}

Status RemoteAftClient::CheckSession(const RemoteTxnSession& session) const {
  if (!session.valid()) {
    return Status::InvalidArgument("invalid session: no transaction started");
  }
  if (session.endpoint >= pools_.size()) {
    return Status::InvalidArgument("invalid session: endpoint index out of range");
  }
  return Status::Ok();
}

Result<RemoteTxnSession> RemoteAftClient::StartTransaction() {
  if (pools_.empty()) {
    return Status::FailedPrecondition("no endpoints configured");
  }
  const size_t endpoint = next_endpoint_.fetch_add(1, std::memory_order_relaxed) % pools_.size();
  // Mint the trace context on the client: the server adopts it in its
  // StartTransaction handler, so the whole lifecycle shares one trace id.
  const obs::TraceContext trace = obs::Tracer::Global().StartTrace();
  obs::TraceSpan span(trace, "ClientStartTxn", "client");
  AFT_ASSIGN_OR_RETURN(FrameBytes frame,
                       SealRequest(MessageType::kStartTxn, StartTxnRequest{}, trace.trace_id));
  AFT_ASSIGN_OR_RETURN(std::string payload, Call(endpoint, frame));
  AFT_ASSIGN_OR_RETURN(StartTxnResponse response, StartTxnResponse::Deserialize(payload));
  RemoteTxnSession session;
  session.endpoint = endpoint;
  session.txid = response.txid;
  session.started = true;
  session.trace = trace;
  return session;
}

Status RemoteAftClient::Resume(const RemoteTxnSession& session) {
  AFT_RETURN_IF_ERROR(CheckSession(session));
  AdoptTxnRequest request;
  request.txid = session.txid;
  AFT_ASSIGN_OR_RETURN(FrameBytes frame,
                       SealRequest(MessageType::kAdoptTxn, request, session.trace.trace_id));
  AFT_ASSIGN_OR_RETURN(std::string payload, Call(session.endpoint, frame));
  return DeserializeEmptyResponse(payload);
}

Result<std::optional<std::string>> RemoteAftClient::Get(const RemoteTxnSession& session,
                                                        const std::string& key) {
  AFT_ASSIGN_OR_RETURN(AftNode::VersionedRead read, GetVersioned(session, key));
  return std::move(read.value);
}

Result<AftNode::VersionedRead> RemoteAftClient::GetVersioned(const RemoteTxnSession& session,
                                                             const std::string& key) {
  AFT_RETURN_IF_ERROR(CheckSession(session));
  GetRequest request;
  request.txid = session.txid;
  request.key = key;
  AFT_ASSIGN_OR_RETURN(FrameBytes frame,
                       SealRequest(MessageType::kGet, request, session.trace.trace_id));
  AFT_ASSIGN_OR_RETURN(std::string payload, Call(session.endpoint, frame));
  AFT_ASSIGN_OR_RETURN(GetResponse response, GetResponse::Deserialize(payload));
  return std::move(response.read);
}

Result<std::vector<AftNode::VersionedRead>> RemoteAftClient::MultiGet(
    const RemoteTxnSession& session, std::span<const std::string> keys) {
  AFT_RETURN_IF_ERROR(CheckSession(session));
  const size_t pool_width = pools_[session.endpoint].channels.size();
  const size_t min_chunk = std::max<size_t>(options_.fanout_min_chunk, 1);
  const size_t num_chunks = std::min(pool_width, keys.size() / min_chunk);
  if (num_chunks < 2) {
    MultiGetRequest request;
    request.txid = session.txid;
    request.keys.assign(keys.begin(), keys.end());
    AFT_ASSIGN_OR_RETURN(FrameBytes frame,
                         SealRequest(MessageType::kMultiGet, request, session.trace.trace_id));
    AFT_ASSIGN_OR_RETURN(std::string payload, Call(session.endpoint, frame));
    AFT_ASSIGN_OR_RETURN(MultiGetResponse response, MultiGetResponse::Deserialize(payload));
    return std::move(response.reads);
  }
  // Fan the batch out over distinct pool stripes. Chunked reads on one txn
  // are an interleaving of sequential MultiGets: the server folds each chunk
  // into the txn's read set under the txn lock, so the union carries the same
  // Algorithm-1 atomicity guarantee as one monolithic call (see header).
  stats_.fanouts.fetch_add(1, std::memory_order_relaxed);
  metrics_.fanouts->Increment();
  std::vector<std::pair<size_t, size_t>> ranges;  // {offset, length}
  const size_t base = keys.size() / num_chunks;
  const size_t extra = keys.size() % num_chunks;
  for (size_t c = 0, off = 0; c < num_chunks; ++c) {
    const size_t len = base + (c < extra ? 1 : 0);
    ranges.emplace_back(off, len);
    off += len;
  }
  std::vector<AftNode::VersionedRead> reads(keys.size());
  const size_t stripe0 = StripeForThisThread();
  const Status status = IoExecutor::Shared().ParallelFor(
      num_chunks, [&](size_t c) -> Status {
        const auto [off, len] = ranges[c];
        MultiGetRequest request;
        request.txid = session.txid;
        request.keys.assign(keys.begin() + off, keys.begin() + off + len);
        AFT_ASSIGN_OR_RETURN(FrameBytes frame, SealRequest(MessageType::kMultiGet, request,
                                                           session.trace.trace_id));
        AFT_ASSIGN_OR_RETURN(std::string payload,
                             CallOnStripe(session.endpoint, stripe0 + c, frame));
        AFT_ASSIGN_OR_RETURN(MultiGetResponse response, MultiGetResponse::Deserialize(payload));
        if (response.reads.size() != len) {
          return Status::Internal("multiget chunk returned " +
                                  std::to_string(response.reads.size()) + " reads for " +
                                  std::to_string(len) + " keys");
        }
        std::move(response.reads.begin(), response.reads.end(), reads.begin() + off);
        return Status::Ok();
      });
  AFT_RETURN_IF_ERROR(status);
  return reads;
}

Status RemoteAftClient::Put(const RemoteTxnSession& session, const std::string& key,
                            std::string value) {
  AFT_RETURN_IF_ERROR(CheckSession(session));
  PutRequest request;
  request.txid = session.txid;
  request.key = key;
  request.value = std::move(value);
  AFT_ASSIGN_OR_RETURN(FrameBytes frame,
                       SealRequest(MessageType::kPut, request, session.trace.trace_id));
  AFT_ASSIGN_OR_RETURN(std::string payload, Call(session.endpoint, frame));
  return DeserializeEmptyResponse(payload);
}

Status RemoteAftClient::PutBatch(const RemoteTxnSession& session, std::span<const WriteOp> ops) {
  AFT_RETURN_IF_ERROR(CheckSession(session));
  const size_t pool_width = pools_[session.endpoint].channels.size();
  const size_t min_chunk = std::max<size_t>(options_.fanout_min_chunk, 1);
  size_t num_chunks = std::min(pool_width, ops.size() / min_chunk);
  if (num_chunks >= 2) {
    // Concurrent chunks lose the batch's internal ordering, which only
    // matters when one key appears twice (last write would no longer
    // deterministically win) — fall back to one call in that case.
    std::unordered_set<std::string_view> seen;
    seen.reserve(ops.size());
    for (const WriteOp& op : ops) {
      if (!seen.insert(op.key).second) {
        num_chunks = 1;
        break;
      }
    }
  }
  if (num_chunks < 2) {
    PutBatchRequest request;
    request.txid = session.txid;
    request.ops.assign(ops.begin(), ops.end());
    AFT_ASSIGN_OR_RETURN(FrameBytes frame,
                         SealRequest(MessageType::kPutBatch, request, session.trace.trace_id));
    AFT_ASSIGN_OR_RETURN(std::string payload, Call(session.endpoint, frame));
    return DeserializeEmptyResponse(payload);
  }
  // Buffered writes land in the txn's private write set, so concurrent
  // chunks of distinct keys commute; atomicity is decided at Commit, which
  // still sees the union (same guarantee as the sequential loop the server
  // runs for one big batch).
  stats_.fanouts.fetch_add(1, std::memory_order_relaxed);
  metrics_.fanouts->Increment();
  std::vector<std::pair<size_t, size_t>> ranges;
  const size_t base = ops.size() / num_chunks;
  const size_t extra = ops.size() % num_chunks;
  for (size_t c = 0, off = 0; c < num_chunks; ++c) {
    const size_t len = base + (c < extra ? 1 : 0);
    ranges.emplace_back(off, len);
    off += len;
  }
  const size_t stripe0 = StripeForThisThread();
  return IoExecutor::Shared().ParallelFor(num_chunks, [&](size_t c) -> Status {
    const auto [off, len] = ranges[c];
    PutBatchRequest request;
    request.txid = session.txid;
    request.ops.assign(ops.begin() + off, ops.begin() + off + len);
    AFT_ASSIGN_OR_RETURN(FrameBytes frame, SealRequest(MessageType::kPutBatch, request,
                                                       session.trace.trace_id));
    AFT_ASSIGN_OR_RETURN(std::string payload, CallOnStripe(session.endpoint, stripe0 + c, frame));
    return DeserializeEmptyResponse(payload);
  });
}

Result<TxnId> RemoteAftClient::Commit(const RemoteTxnSession& session) {
  AFT_RETURN_IF_ERROR(CheckSession(session));
  obs::TraceSpan span(session.trace, "ClientCommit", "client");
  CommitRequest request;
  request.txid = session.txid;
  AFT_ASSIGN_OR_RETURN(FrameBytes frame,
                       SealRequest(MessageType::kCommit, request, session.trace.trace_id));
  AFT_ASSIGN_OR_RETURN(std::string payload, Call(session.endpoint, frame));
  AFT_ASSIGN_OR_RETURN(CommitResponse response, CommitResponse::Deserialize(payload));
  return response.id;
}

Status RemoteAftClient::Abort(const RemoteTxnSession& session) {
  AFT_RETURN_IF_ERROR(CheckSession(session));
  AbortRequest request;
  request.txid = session.txid;
  AFT_ASSIGN_OR_RETURN(FrameBytes frame,
                       SealRequest(MessageType::kAbort, request, session.trace.trace_id));
  AFT_ASSIGN_OR_RETURN(std::string payload, Call(session.endpoint, frame));
  return DeserializeEmptyResponse(payload);
}

Result<std::string> RemoteAftClient::Ping(size_t endpoint) {
  AFT_ASSIGN_OR_RETURN(FrameBytes frame, SealRequest(MessageType::kPing, PingRequest{}));
  AFT_ASSIGN_OR_RETURN(std::string payload, Call(endpoint, frame));
  AFT_ASSIGN_OR_RETURN(PingResponse response, PingResponse::Deserialize(payload));
  return std::move(response.node_id);
}

Result<std::string> RemoteAftClient::GetMetrics(size_t endpoint) {
  AFT_ASSIGN_OR_RETURN(FrameBytes frame, SealRequest(MessageType::kGetMetrics, GetMetricsRequest{}));
  AFT_ASSIGN_OR_RETURN(std::string payload, Call(endpoint, frame));
  AFT_ASSIGN_OR_RETURN(GetMetricsResponse response, GetMetricsResponse::Deserialize(payload));
  return std::move(response.text);
}

}  // namespace net
}  // namespace aft
