#include "src/net/tcp_multicast_bus.h"

#include <algorithm>
#include <utility>

#include "src/common/io_executor.h"
#include "src/common/logging.h"
#include "src/common/histogram.h"
#include "src/net/frame.h"
#include "src/net/message.h"
#include "src/obs/trace.h"

namespace aft {
namespace net {

TcpMulticastBus::TcpMulticastBus(Clock& clock, Duration interval, TcpMulticastBusOptions options)
    : MulticastBus(clock, interval), options_(options) {
  auto& reg = obs::MetricsRegistry::Global();
  metrics_.rounds = reg.GetCounter("aft_gossip_rounds_total", "Gossip rounds run");
  metrics_.records_broadcast =
      reg.GetCounter("aft_gossip_records_broadcast_total", "Commit records put on the wire");
  metrics_.records_pruned = reg.GetCounter(
      "aft_gossip_records_pruned_total", "Commit records dropped by supersedence pruning");
  metrics_.delivery_errors =
      reg.GetCounter("aft_gossip_delivery_errors_total", "Gossip deliveries that failed");
  metrics_.batch_records =
      reg.GetHistogram("aft_gossip_batch_records", "Records per coalesced ApplyCommits frame",
                       ExponentialBoundaries(1.0, 2.0, 12));
}

TcpMulticastBus::~TcpMulticastBus() { Stop(); }

void TcpMulticastBus::RegisterNode(AftNode* node) {
  MutexLock lock(mu_);
  for (const auto& peer : peers_) {
    if (peer->node == node) {
      return;
    }
  }
  auto peer = std::make_shared<Peer>(node);
  peer->server = std::make_unique<AftServiceServer>(*node, options_.server_options);
  const Status started = peer->server->Start();
  if (!started.ok()) {
    AFT_LOG(Error) << "tcp bus: cannot serve node " << node->node_id() << ": "
                   << started.ToString();
    return;
  }
  AFT_LOG(Info) << "tcp bus: node " << node->node_id() << " serving on "
                << peer->server->endpoint().ToString();
  peers_.push_back(std::move(peer));
}

void TcpMulticastBus::UnregisterNode(AftNode* node) {
  std::shared_ptr<Peer> removed;
  {
    MutexLock lock(mu_);
    auto it = std::find_if(peers_.begin(), peers_.end(),
                           [node](const auto& peer) { return peer->node == node; });
    if (it == peers_.end()) {
      return;
    }
    removed = std::move(*it);
    peers_.erase(it);
  }
  // A round that snapshotted the old list still holds the peer alive; its
  // delivery either completes or fails cleanly against the stopped server.
  removed->server->Stop();
}

void TcpMulticastBus::SetFaultManagerSink(FaultManagerSink sink) {
  MutexLock lock(mu_);
  fault_manager_sink_ = std::move(sink);
}

NetEndpoint TcpMulticastBus::EndpointOf(const AftNode* node) const {
  MutexLock lock(mu_);
  for (const auto& peer : peers_) {
    if (peer->node == node) {
      return peer->server->endpoint();
    }
  }
  return NetEndpoint{};
}

std::vector<NetEndpoint> TcpMulticastBus::Endpoints() const {
  MutexLock lock(mu_);
  std::vector<NetEndpoint> endpoints;
  endpoints.reserve(peers_.size());
  for (const auto& peer : peers_) {
    endpoints.push_back(peer->server->endpoint());
  }
  return endpoints;
}

void TcpMulticastBus::KillEndpoint(const AftNode* node) {
  std::shared_ptr<Peer> peer;
  {
    MutexLock lock(mu_);
    for (auto& candidate : peers_) {
      if (candidate->node == node) {
        peer = candidate;
        break;
      }
    }
  }
  if (!peer) {
    return;
  }
  peer->server->Stop();
  MutexLock lock(peer->send_mu);
  peer->socket.Close();
  peer->reader.Reset();
  peer->connected = false;
}

Status TcpMulticastBus::DeliverTo(Peer& peer, const FrameBytes& frame) {
  MutexLock lock(peer.send_mu);
  if (!peer.connected) {
    auto socket = TcpConnect(peer.server->endpoint(), options_.connect_timeout);
    if (!socket.ok()) {
      return socket.status();
    }
    peer.socket = std::move(socket).value();
    (void)peer.socket.SetNoDelay();
    (void)peer.socket.SetSendTimeout(options_.rpc_timeout);
    (void)peer.socket.SetRecvTimeout(options_.rpc_timeout);
    peer.connected = true;
  }
  Status status = WriteFrameBytes(peer.socket, frame);
  Frame ack;
  if (status.ok()) {
    status = peer.reader.Next(peer.socket, &ack);
  }
  if (status.ok()) {
    status = ack.type != ResponseType(MessageType::kApplyCommits)
                 ? Status::Unavailable("gossip ack had wrong message type")
                 : ApplyCommitsResponse::Deserialize(ack.payload).status();
  }
  if (!status.ok()) {
    peer.socket.Close();
    peer.reader.Reset();
    peer.connected = false;
  }
  return status;
}

void TcpMulticastBus::RunOnce() {
  stats_.rounds.fetch_add(1, std::memory_order_relaxed);
  metrics_.rounds->Increment();
  const bool prune = pruning_enabled();
  std::vector<std::shared_ptr<Peer>> peers;
  FaultManagerSink sink;
  {
    MutexLock lock(mu_);
    peers = peers_;
    sink = fault_manager_sink_;
  }
  // Phase 1 — drain + prune, all in-memory. Each sender's stream is pruned
  // against its OWN commit index (§4.1), so superseded transactions never
  // reach the wire; the unpruned stream still goes to the fault manager,
  // which must see every commit.
  struct Outgoing {
    Peer* sender;
    size_t record_count = 0;
    // The sender's pruned stream pre-encoded ONCE as the length-prefixed
    // record sequence of the ApplyCommits body (everything after the leading
    // count). Receivers share these bytes: a per-receiver payload is the
    // total count plus the other senders' chunks, so each record is encoded
    // exactly once per round no matter how many peers receive it.
    std::string chunk;
    // First sampled trace among the drained commits (0 = none): carried on
    // the coalesced frame so the remote apply joins the commit's trace.
    obs::TraceContext trace;
  };
  std::vector<Outgoing> outgoing;
  for (const auto& sender : peers) {
    if (!sender->node->alive()) {
      continue;  // A dead node cannot gossip; the fault manager's storage
                 // scan recovers anything it committed but never broadcast.
    }
    std::vector<CommitRecordPtr> pruned;
    std::vector<CommitRecordPtr> unpruned;
    obs::TraceContext trace;
    sender->node->DrainRecentCommits(prune ? &pruned : nullptr, &unpruned, &trace);
    if (unpruned.empty()) {
      continue;
    }
    if (sink) {
      sink(unpruned);
      stats_.records_to_fault_manager.fetch_add(unpruned.size(), std::memory_order_relaxed);
    }
    std::vector<CommitRecordPtr>& out = prune ? pruned : unpruned;
    stats_.records_broadcast.fetch_add(out.size(), std::memory_order_relaxed);
    stats_.records_pruned.fetch_add(unpruned.size() - out.size(), std::memory_order_relaxed);
    metrics_.records_broadcast->Increment(out.size());
    metrics_.records_pruned->Increment(unpruned.size() - out.size());
    if (!out.empty()) {
      BinaryWriter chunk;
      for (const CommitRecordPtr& record : out) {
        chunk.PutString(record->Serialize());
      }
      outgoing.push_back(Outgoing{sender.get(), out.size(), std::move(chunk).TakeData(), trace});
    }
  }
  if (outgoing.empty()) {
    return;
  }
  // Phase 2 — coalesce per receiver: every other sender's pruned stream in
  // one batched ApplyCommits frame. The per-sender chunks were encoded in
  // phase 1; assembling a receiver's payload is a count prefix plus chunk
  // appends into arena segments — no record is re-serialized here.
  struct Delivery {
    std::shared_ptr<Peer> receiver;
    FrameBytes frame;
    size_t record_count = 0;
    obs::TraceContext trace;
  };
  std::vector<Delivery> deliveries;
  for (const auto& receiver : peers) {
    if (!receiver->node->alive()) {
      continue;
    }
    size_t record_count = 0;
    obs::TraceContext trace;
    for (const Outgoing& out : outgoing) {
      if (out.sender == receiver.get()) {
        continue;
      }
      record_count += out.record_count;
      if (!trace.sampled()) {
        trace = out.trace;
      }
    }
    if (record_count == 0) {
      continue;
    }
    ArenaWriter payload;
    payload.PutU32(static_cast<uint32_t>(record_count));
    for (const Outgoing& out : outgoing) {
      if (out.sender != receiver.get()) {
        payload.PutBytes(out.chunk.data(), out.chunk.size());
      }
    }
    auto sealed = SealFrame(MessageType::kApplyCommits, std::move(payload).TakeBuffer(),
                            trace.trace_id);
    if (!sealed.ok()) {
      // Only reachable past the 64 MiB frame cap; the records stay queued on
      // no one (same no-retry contract as a failed delivery — §4.2's storage
      // scan is the recovery path).
      stats_.delivery_errors.fetch_add(1, std::memory_order_relaxed);
      metrics_.delivery_errors->Increment();
      AFT_LOG(Warn) << "tcp bus: cannot seal gossip frame for "
                    << receiver->node->node_id() << ": " << sealed.status().ToString();
      continue;
    }
    metrics_.batch_records->Observe(static_cast<double>(record_count));
    deliveries.push_back(Delivery{receiver, std::move(*sealed), record_count, trace});
  }
  if (deliveries.empty()) {
    return;
  }
  // Phase 3 — deliver to all receivers concurrently. A failed delivery is
  // counted and NOT retried (the record set is not re-queued; §4.2's scan is
  // the recovery path); the connection itself is re-dialed next round. The
  // per-delivery error handling keeps one dead peer's timeout from ever
  // serializing before — or aborting — the deliveries to healthy peers.
  (void)IoExecutor::Shared().ParallelFor(deliveries.size(), [&](size_t i) -> Status {
    Delivery& delivery = deliveries[i];
    obs::TraceSpan span(delivery.trace, "GossipBroadcast", delivery.receiver->node->node_id());
    span.AddArg("records", std::to_string(delivery.record_count));
    const Status delivered = DeliverTo(*delivery.receiver, delivery.frame);
    if (!delivered.ok()) {
      stats_.delivery_errors.fetch_add(1, std::memory_order_relaxed);
      metrics_.delivery_errors->Increment();
      obs::MetricsRegistry::Global()
          .GetCounter("aft_gossip_peer_delivery_errors_total",
                      "Gossip deliveries that failed, by destination peer",
                      {{"peer", delivery.receiver->node->node_id()}})
          ->Increment();
      AFT_LOG(Warn) << "tcp bus: delivery of " << delivery.record_count << " records to "
                    << delivery.receiver->node->node_id()
                    << " failed: " << delivered.ToString();
    }
    return Status::Ok();
  });
}

}  // namespace net
}  // namespace aft
