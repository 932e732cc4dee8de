// Commit-set multicast over real loopback TCP (§4.1).
//
// Same gossip protocol as `InProcMulticastBus` — drain each node's recent
// commits, forward the unpruned stream to the fault manager, broadcast the
// pruned stream to every peer — but delivery crosses an actual socket
// boundary: each registered node gets its own `AftServiceServer`, and the bus
// ships records to peers as framed, checksummed `ApplyCommits` RPCs against
// those servers, awaiting the ack so a gossip round is deterministic.
//
// Round shape (RunOnce): drains and per-sender supersedence pruning run
// first (cheap, in-memory — pruned txns never reach the wire, §4.1); then
// every receiver's records are COALESCED into one batched ApplyCommits frame
// (the union of all other senders' pruned streams), encoded once, and all
// receivers are delivered to CONCURRENTLY on the shared IoExecutor. The
// committer thread is never blocked behind a slow peer, and one dead peer
// costs only its own timeout — never delays delivery to healthy peers.
//
// Failure model: a delivery that fails in the transport (connection refused /
// reset / timeout) increments `stats().delivery_errors` and is NOT retried —
// the fault manager's storage scan is the recovery path for anything gossip
// loses, exactly as in the paper (§4.2). The failed peer's connection is
// re-dialed on the next round. `KillEndpoint` tears one node's server down
// without touching the node, simulating a machine whose network died after
// acking a commit to its client.

#ifndef SRC_NET_TCP_MULTICAST_BUS_H_
#define SRC_NET_TCP_MULTICAST_BUS_H_

#include <memory>
#include <vector>

#include "src/cluster/multicast_bus.h"
#include "src/common/mutex.h"
#include "src/net/client.h"
#include "src/net/frame.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/obs/metrics.h"

namespace aft {
namespace net {

struct TcpMulticastBusOptions {
  // Real-time budgets for one gossip delivery (loopback: generous).
  Duration connect_timeout = std::chrono::seconds(2);
  Duration rpc_timeout = std::chrono::seconds(10);
  // Options for the per-node AftServiceServers the bus hosts (port, send
  // deadline) — plumbed from the cluster deployment.
  AftServiceServerOptions server_options;
};

class TcpMulticastBus : public MulticastBus {
 public:
  explicit TcpMulticastBus(Clock& clock, Duration interval = Millis(1000),
                           TcpMulticastBusOptions options = {});
  ~TcpMulticastBus() override;

  // Creates and starts an AftServiceServer for `node` on an ephemeral
  // loopback port. Registration failure (no free port) is logged and the
  // node is left unregistered.
  void RegisterNode(AftNode* node) override;
  void UnregisterNode(AftNode* node) override;
  void SetFaultManagerSink(FaultManagerSink sink) override;
  void RunOnce() override;

  // The service endpoint for a registered node (port 0 if unknown). Clients
  // (RemoteAftClient) connect here; so does peer gossip.
  NetEndpoint EndpointOf(const AftNode* node) const;
  // All registered service endpoints, in registration order.
  std::vector<NetEndpoint> Endpoints() const;

  // Test hook: stop `node`'s server (sockets die, port closes) WITHOUT
  // unregistering the node — the network failed, not the bus membership.
  void KillEndpoint(const AftNode* node);

 private:
  struct Peer {
    explicit Peer(AftNode* n) : node(n) {}
    AftNode* node;
    std::unique_ptr<AftServiceServer> server;
    // Pooled gossip connection TO this peer's server; re-dialed on error.
    // Guarded by its own lock so concurrent deliveries to DIFFERENT peers
    // never serialize on the membership lock.
    Mutex send_mu;
    Socket socket GUARDED_BY(send_mu);
    FrameReader reader GUARDED_BY(send_mu);  // reset with every re-dial
    bool connected GUARDED_BY(send_mu) = false;
  };

  // Sends one sealed ApplyCommits frame to `peer`'s server and awaits the
  // ack. Serialized per peer under peer.send_mu. The trace id (if any) was
  // baked into the frame at seal time so the receiver's RemoteApply span
  // joins the trace.
  Status DeliverTo(Peer& peer, const FrameBytes& frame);

  const TcpMulticastBusOptions options_;

  // Registry counters mirroring the base-class stats, plus the per-round
  // coalesced batch size distribution.
  struct Instruments {
    obs::Counter* rounds = nullptr;
    obs::Counter* records_broadcast = nullptr;
    obs::Counter* records_pruned = nullptr;
    obs::Counter* delivery_errors = nullptr;
    obs::Histogram* batch_records = nullptr;
  };
  Instruments metrics_;

  // Guards membership and the sink only. Gossip rounds snapshot the peer list
  // (shared_ptr) and run OUTSIDE this lock, so Register/Unregister/Kill are
  // never blocked behind a slow delivery, and a peer removed mid-round stays
  // alive until the round's deliveries finish.
  mutable Mutex mu_;
  std::vector<std::shared_ptr<Peer>> peers_ GUARDED_BY(mu_);
  FaultManagerSink fault_manager_sink_ GUARDED_BY(mu_);
};

}  // namespace net
}  // namespace aft

#endif  // SRC_NET_TCP_MULTICAST_BUS_H_
