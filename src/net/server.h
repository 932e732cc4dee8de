// The AFT service server: one shim node behind a real TCP socket (§4).
//
// Hosts the full Table-1 API (StartTransaction / Get / MultiGet / Put /
// PutBatch / Commit / Abort) plus the inter-node ApplyCommits multicast
// endpoint and a Ping health check, all against one local `AftNode`. This is
// the process boundary the paper's deployment actually has: `RemoteAftClient`
// and `TcpMulticastBus` are its two client populations.
//
// Concurrency model: one blocking handler thread per accepted connection.
// The handler reads the socket through a per-connection `FrameReader`
// (one recv, every complete frame decoded in place), and for each request in
// arrival order runs the handler and writes the response itself (one writev
// of header + arena payload segments). There is no hand-off between threads
// on the request path: a request costs no cross-thread wakeup beyond the
// socket's own. A connection's requests are therefore served strictly in
// order, which is what lets the client pipeline several requests on one
// connection and match responses FIFO (docs/PROTOCOLS.md, "Pipelining
// contract"); concurrency across requests comes from the client's
// connection pool, one server thread per pooled connection.
//
// Shutdown protocol: `Stop` wakes the blocked accept(2) via shutdown(2) on
// the listener, joins the accept thread, then shuts every live connection
// down (waking handlers blocked in recv; a handler mid-request finishes it
// and fails its write) and joins the handler threads. No thread is ever
// detached, so TSan sees every exit.

#ifndef SRC_NET_SERVER_H_
#define SRC_NET_SERVER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/core/aft_node.h"
#include "src/net/frame.h"
#include "src/obs/metrics.h"
#include "src/net/socket.h"

namespace aft {
namespace net {

struct AftServiceServerOptions {
  uint16_t port = 0;  // 0 = kernel-assigned ephemeral port.
  // Connection-level send deadline: a client that stops draining its socket
  // cannot wedge a handler thread forever. Reads are deadline-free — an idle
  // connection is legal; Stop() wakes blocked readers via shutdown(2).
  Duration send_timeout = std::chrono::seconds(30);
};

struct AftServiceServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_served{0};
  // Frames rejected before dispatch: bad magic/version/CRC, unknown type,
  // oversized payload, undecodable request body.
  std::atomic<uint64_t> bad_frames{0};
  // Requests currently inside a handler (the aft_net_requests_inflight gauge).
  std::atomic<uint64_t> requests_inflight{0};
};

class AftServiceServer {
 public:
  explicit AftServiceServer(AftNode& node, AftServiceServerOptions options = {});
  ~AftServiceServer();

  AftServiceServer(const AftServiceServer&) = delete;
  AftServiceServer& operator=(const AftServiceServer&) = delete;

  // Binds and starts accepting. Idempotent failure: a dead port returns the
  // bind error and leaves the server stopped.
  Status Start();

  // Clean shutdown: stops accepting, tears down live connections, joins all
  // threads (a handler mid-request finishes it first). Safe to call twice.
  void Stop();

  // Test-only crash simulation ("kill -9 between two frames"): shutdown(2)
  // every live connection socket immediately WITHOUT joining handlers, so
  // in-flight requests observe a torn connection exactly as if the process
  // died. Callable from inside a handler (e.g. an AftNode crash hook).
  void AbandonConnections();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // The bound port; valid after a successful Start.
  uint16_t port() const { return port_; }
  NetEndpoint endpoint() const { return NetEndpoint{"127.0.0.1", port_}; }
  AftNode& node() { return node_; }
  const AftServiceServerStats& stats() const { return stats_; }

 private:
  // One live connection. The handler thread owns the Socket; Stop and
  // AbandonConnections only call Shutdown() on it (fd stays valid until the
  // object dies after join), so there is no close/use race.
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  // Decodes + dispatches one request; the response payload (encoded status +
  // body) is appended into `out` as arena segments — the frame layer sends
  // them with writev, no flat-string coalescing on the response path.
  void HandleRequest(MessageType type, const std::string& payload, uint64_t trace_id,
                     bool* bad_frame, ArenaWriter& out);
  // Joins finished handler threads (called opportunistically per accept).
  void ReapFinished();

  AftNode& node_;
  const AftServiceServerOptions options_;
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  Listener listener_;
  std::thread accept_thread_;

  Mutex mu_;
  std::vector<std::unique_ptr<Connection>> connections_ GUARDED_BY(mu_);

  AftServiceServerStats stats_;

  // Per-method service latency (aft_net_rpc_latency_ms{node=,method=}),
  // indexed by the request MessageType octet; nullptr for unknown types.
  std::array<obs::Histogram*, 16> rpc_latency_{};
  std::vector<obs::ScopedMetricCallback> metric_callbacks_;
};

}  // namespace net
}  // namespace aft

#endif  // SRC_NET_SERVER_H_
