#include "src/net/server.h"

#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/net/message.h"
#include "src/obs/trace.h"

namespace aft {
namespace net {

namespace {

// Counts one in-flight request for the lifetime of a HandleRequest call.
class InflightGuard {
 public:
  explicit InflightGuard(std::atomic<uint64_t>& count) : count_(count) {
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  ~InflightGuard() { count_.fetch_sub(1, std::memory_order_relaxed); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  std::atomic<uint64_t>& count_;
};

}  // namespace

AftServiceServer::AftServiceServer(AftNode& node, AftServiceServerOptions options)
    : node_(node), options_(options) {
  auto& reg = obs::MetricsRegistry::Global();
  const obs::MetricLabels labels = {{"node", node_.node_id()}};
  for (uint8_t t = 1; t < rpc_latency_.size(); ++t) {
    const auto type = static_cast<MessageType>(t);
    if (!IsKnownMessageType(type)) {
      continue;
    }
    obs::MetricLabels method_labels = labels;
    method_labels.emplace_back("method", std::string(MessageTypeName(type)));
    rpc_latency_[t] =
        reg.GetHistogram("aft_net_rpc_latency_ms", "Server-side RPC service time (ms)",
                         DefaultLatencyBoundariesMs(), std::move(method_labels));
  }
  auto wrap = [&](const char* metric, const char* help, const std::atomic<uint64_t>& cell) {
    metric_callbacks_.push_back(reg.RegisterCallback(
        metric, help, obs::CallbackType::kCounter, labels,
        [&cell] { return static_cast<double>(cell.load(std::memory_order_relaxed)); }));
  };
  wrap("aft_net_connections_accepted_total", "TCP connections accepted",
       stats_.connections_accepted);
  wrap("aft_net_requests_served_total", "Requests dispatched to a handler",
       stats_.requests_served);
  wrap("aft_net_bad_frames_total", "Frames rejected before dispatch", stats_.bad_frames);
  metric_callbacks_.push_back(reg.RegisterCallback(
      "aft_net_requests_inflight", "Requests currently executing in a handler",
      obs::CallbackType::kGauge, labels, [this] {
        return static_cast<double>(stats_.requests_inflight.load(std::memory_order_relaxed));
      }));
}

AftServiceServer::~AftServiceServer() { Stop(); }

Status AftServiceServer::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("server already running");
  }
  auto listener = Listener::Bind(options_.port);
  if (!listener.ok()) {
    running_.store(false);
    return listener.status();
  }
  listener_ = std::move(listener).value();
  port_ = listener_.port();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void AftServiceServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  listener_.Shutdown();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  listener_.Close();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    MutexLock lock(mu_);
    connections.swap(connections_);
  }
  for (auto& conn : connections) {
    conn->socket.Shutdown();
  }
  for (auto& conn : connections) {
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
  }
}

void AftServiceServer::AbandonConnections() {
  MutexLock lock(mu_);
  for (auto& conn : connections_) {
    if (!conn->done.load(std::memory_order_acquire)) {
      conn->socket.Shutdown();
    }
  }
}

void AftServiceServer::ReapFinished() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    MutexLock lock(mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : finished) {
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
  }
}

void AftServiceServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (!running_.load(std::memory_order_acquire)) {
        return;  // Clean shutdown woke the accept.
      }
      continue;  // Transient (e.g. peer aborted the handshake).
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    ReapFinished();
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(accepted).value();
    (void)conn->socket.SetSendTimeout(options_.send_timeout);
    Connection* raw = conn.get();
    {
      MutexLock lock(mu_);
      connections_.push_back(std::move(conn));
    }
    // The thread is created AFTER the connection is registered so Stop()
    // cannot miss it; the handler only touches its own Connection fields.
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void AftServiceServer::ServeConnection(Connection* conn) {
  FrameReader reader;
  Frame frame;
  // aftlint: hot
  while (running_.load(std::memory_order_acquire)) {
    const Status read = reader.Next(conn->socket, &frame);
    if (read.code() == StatusCode::kInvalidArgument) {
      // Stream-level corruption: the length prefix can no longer be trusted,
      // so the only safe move is to drop the connection.
      stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
      // aftlint-allow(obs-hot-log): teardown path — logs once, then the connection dies
      AFT_LOG(Warn) << "aft server (" << node_.node_id()
                    << "): dropping connection: " << read.ToString();
      break;
    }
    if (!read.ok()) {
      break;  // Peer hung up (normal), or Stop() shut the socket down.
    }
    if (IsResponse(frame.type)) {
      stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
      break;  // A client sending response frames is not speaking the protocol.
    }
    bool bad_frame = false;
    ArenaWriter response;
    HandleRequest(frame.type, frame.payload, frame.trace_id, &bad_frame, response);
    if (bad_frame) {
      stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.requests_served.fetch_add(1, std::memory_order_relaxed);
    auto sealed = SealFrame(ResponseType(frame.type), std::move(response).TakeBuffer());
    if (!sealed.ok() || !WriteFrameBytes(conn->socket, *sealed).ok()) {
      break;
    }
  }
  // Send FIN now so the peer sees EOF immediately; the fd itself is closed
  // when the Connection is reaped (Shutdown never races Close).
  conn->socket.Shutdown();
  conn->done.store(true, std::memory_order_release);
}

void AftServiceServer::HandleRequest(MessageType type, const std::string& payload,
                                     uint64_t trace_id, bool* bad_frame, ArenaWriter& out) {
  const InflightGuard inflight(stats_.requests_inflight);
  const uint8_t type_index = static_cast<uint8_t>(type);
  obs::ScopedHistogramTimer rpc_timer(
      type_index < rpc_latency_.size() ? rpc_latency_[type_index] : nullptr);
  // A frame that passed CRC but fails request decoding is a protocol bug on
  // the peer, not stream corruption: reply with the decode error and keep
  // the connection (framing is still in sync).
  switch (type) {
    case MessageType::kStartTxn: {
      auto request = StartTxnRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      // Adopt the client-minted trace context (0 = unsampled) so the
      // transaction's server-side lifecycle joins the client's trace.
      auto txid = node_.StartTransaction(obs::TraceContext{trace_id});
      StartTxnResponse response;
      if (txid.ok()) {
        response.txid = *txid;
      }
      response.SerializeTo(out, txid.status());
      return;
    }
    case MessageType::kAdoptTxn: {
      auto request = AdoptTxnRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      SerializeEmptyResponseTo(out, node_.AdoptTransaction(request->txid));
      return;
    }
    case MessageType::kGet: {
      auto request = GetRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      auto read = node_.GetVersioned(request->txid, request->key);
      GetResponse response;
      if (read.ok()) {
        response.read = std::move(read).value();
      }
      response.SerializeTo(out, read.status());
      return;
    }
    case MessageType::kMultiGet: {
      auto request = MultiGetRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      auto reads = node_.MultiGet(request->txid, request->keys);
      MultiGetResponse response;
      if (reads.ok()) {
        response.reads = std::move(reads).value();
      }
      response.SerializeTo(out, reads.status());
      return;
    }
    case MessageType::kPut: {
      auto request = PutRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      SerializeEmptyResponseTo(out,
                               node_.Put(request->txid, request->key, std::move(request->value)));
      return;
    }
    case MessageType::kPutBatch: {
      auto request = PutBatchRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      for (WriteOp& op : request->ops) {
        const Status status = node_.Put(request->txid, op.key, std::move(op.value));
        if (!status.ok()) {
          SerializeEmptyResponseTo(out, status);
          return;
        }
      }
      SerializeEmptyResponseTo(out, Status::Ok());
      return;
    }
    case MessageType::kCommit: {
      auto request = CommitRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      auto id = node_.CommitTransaction(request->txid);
      CommitResponse response;
      if (id.ok()) {
        response.id = *id;
      }
      response.SerializeTo(out, id.status());
      return;
    }
    case MessageType::kAbort: {
      auto request = AbortRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      SerializeEmptyResponseTo(out, node_.AbortTransaction(request->txid));
      return;
    }
    case MessageType::kApplyCommits: {
      auto request = ApplyCommitsRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      {
        obs::TraceSpan span(obs::TraceContext{trace_id}, "RemoteApply", node_.node_id());
        span.AddArg("records", std::to_string(request->records.size()));
        node_.ApplyRemoteCommits(request->records);
      }
      ApplyCommitsResponse response;
      response.applied = request->records.size();
      response.SerializeTo(out, Status::Ok());
      return;
    }
    case MessageType::kGetMetrics: {
      auto request = GetMetricsRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      GetMetricsResponse response;
      response.text = obs::MetricsRegistry::Global().Exposition();
      response.SerializeTo(out, Status::Ok());
      return;
    }
    case MessageType::kPing: {
      auto request = PingRequest::Deserialize(payload);
      if (!request.ok()) {
        *bad_frame = true;
        SerializeEmptyResponseTo(out, request.status());
        return;
      }
      PingResponse response;
      response.node_id = node_.node_id();
      const Status status = node_.alive()
          ? Status::Ok()
          : Status::Unavailable("aft node " + node_.node_id() + " is down");
      response.SerializeTo(out, status);
      return;
    }
    default:
      *bad_frame = true;
      SerializeEmptyResponseTo(out, Status::InvalidArgument(
          "unhandled message type " + std::to_string(static_cast<int>(type))));
      return;
  }
}

}  // namespace net
}  // namespace aft
