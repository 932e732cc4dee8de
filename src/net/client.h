// RemoteAftClient: the AftClient surface over real TCP.
//
// Mirrors src/cluster/aft_client.h call-for-call — StartTransaction / Resume /
// Get / GetVersioned / MultiGet / Put / PutBatch / Commit / Abort — but every
// call is one framed request/response RPC against an `AftServiceServer`.
// Transactions are pinned to the endpoint chosen (round-robin) at
// StartTransaction, exactly as the in-proc client pins to a node.
//
// Throughput machinery (see docs/PROTOCOLS.md, "Pipelining contract"):
//   * CONNECTION POOL — `connections_per_endpoint` sockets per endpoint;
//     each calling thread takes a sequence number once (process-wide) and
//     uses it mod the pool width as its stripe, so N threads started
//     together spread over N distinct connections without coordination.
//   * PIPELINING — up to `max_inflight` requests may be outstanding on one
//     connection. The wire carries no request IDs: responses are matched to
//     requests strictly FIFO (the server guarantees in-order responses), via
//     a per-channel waiter queue and a leader/follower reader — whichever
//     waiter is blocked first reads the stream and delivers responses to the
//     queue heads until its own arrives, then hands the reader role off.
//     A waiter whose deadline expires marks itself abandoned but STAYS in the
//     queue, so stream sync survives; its late response is read and dropped.
//   * FAN-OUT — MultiGet/PutBatch with enough keys are split into chunks
//     issued concurrently over distinct pool stripes. Chunked reads on one
//     txn are equivalent to an interleaving of sequential MultiGets: the
//     server folds every read into the transaction's read set under the txn
//     lock (Algorithm 1 runs per chunk against the accumulated set), so the
//     union observes the same atomicity guarantee as one big MultiGet.
//
// Failure handling:
//   * per-call wall-clock deadline (`call_timeout`) enforced with real time —
//     the wire is real hardware, so no SimClock here;
//   * connect + FULL-JITTER capped exponential backoff (uniform in
//     [0, min(max_backoff, initial_backoff · 2^attempt)]) across at most
//     `max_attempts` tries per call — jitter spreads the retry stampede of
//     many lambdas hammering a recovering node;
//   * reconnect-on-EPIPE: a torn pooled connection (server restart, reset)
//     fails every in-flight call on that connection only, is closed, and is
//     re-dialed transparently on the next attempt. Retry happens only on
//     TRANSPORT errors (kUnavailable / kTimeout from the socket layer);
//     semantic statuses from the server (kAborted, kNotFound, ...) pass
//     through verbatim. A replayed StartTransaction starts an extra txn that
//     times out server-side. Commit dedup (the committed-UUID map) holds
//     only on the same live node: a node that dies between a durable commit
//     record and the ack leaves a committed txn no retry can learn about.

#ifndef SRC_NET_CLIENT_H_
#define SRC_NET_CLIENT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/rng.h"
#include "src/core/aft_node.h"
#include "src/net/frame.h"
#include "src/net/message.h"
#include "src/net/socket.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace aft {
namespace net {

struct RemoteAftClientOptions {
  Duration connect_timeout = std::chrono::seconds(2);
  // Overall wall-clock budget for one API call, spanning every retry.
  Duration call_timeout = std::chrono::seconds(10);
  Duration initial_backoff = std::chrono::milliseconds(10);
  Duration max_backoff = std::chrono::milliseconds(500);
  int max_attempts = 4;
  // Pool width per endpoint. 1 reproduces the old single-connection client.
  size_t connections_per_endpoint = 4;
  // Outstanding requests per connection. 1 = single-flight (a request waits
  // for its response before the next may be sent on that connection).
  size_t max_inflight = 32;
  // MultiGet/PutBatch fan-out kicks in once a chunk would carry at least this
  // many ops; below that the syscall savings don't pay for the coordination.
  size_t fanout_min_chunk = 4;
  // Seed for the backoff jitter RNG (deterministic tests pin this).
  uint64_t jitter_seed = 0x5eed5eed5eed5eedULL;
};

struct RemoteAftClientStats {
  std::atomic<uint64_t> rpcs_sent{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> reconnects{0};
  // Calls that fanned out over multiple pool stripes (MultiGet/PutBatch).
  std::atomic<uint64_t> fanouts{0};
};

// Full-jitter capped exponential backoff: uniform in
// [0, min(max_backoff, initial_backoff * 2^attempt)], attempt counted from 0.
// Free function so the bound is unit-testable.
Duration BackoffWithJitter(Duration initial_backoff, Duration max_backoff, int attempt, Rng& rng);

// A remote transaction session: which endpoint serves the transaction, plus
// its UUID. Same value-type role as cluster::TxnSession.
struct RemoteTxnSession {
  size_t endpoint = 0;
  Uuid txid;
  bool started = false;
  // Client-minted trace context (0 = unsampled); travels on every frame of
  // this transaction so the server-side lifecycle joins the client's trace.
  obs::TraceContext trace;

  bool valid() const { return started; }
};

class RemoteAftClient {
 public:
  explicit RemoteAftClient(std::vector<NetEndpoint> endpoints,
                           RemoteAftClientOptions options = {});
  ~RemoteAftClient();

  RemoteAftClient(const RemoteAftClient&) = delete;
  RemoteAftClient& operator=(const RemoteAftClient&) = delete;

  // Begins a transaction on the next endpoint in round-robin order.
  Result<RemoteTxnSession> StartTransaction();

  // Re-attaches to a transaction after a function handoff or retry (§3.3.1).
  Status Resume(const RemoteTxnSession& session);

  Result<std::optional<std::string>> Get(const RemoteTxnSession& session, const std::string& key);
  Result<AftNode::VersionedRead> GetVersioned(const RemoteTxnSession& session,
                                              const std::string& key);
  Result<std::vector<AftNode::VersionedRead>> MultiGet(const RemoteTxnSession& session,
                                                       std::span<const std::string> keys);

  Status Put(const RemoteTxnSession& session, const std::string& key, std::string value);
  Status PutBatch(const RemoteTxnSession& session, std::span<const WriteOp> ops);

  Result<TxnId> Commit(const RemoteTxnSession& session);
  Status Abort(const RemoteTxnSession& session);

  // Liveness probe of one endpoint; returns the remote node id.
  Result<std::string> Ping(size_t endpoint);

  // Prometheus exposition snapshot of the remote process's metrics registry.
  Result<std::string> GetMetrics(size_t endpoint);

  size_t endpoint_count() const { return pools_.size(); }
  const RemoteAftClientStats& stats() const { return stats_; }

 private:
  // One outstanding request on a channel, queued in send order. `abandoned`
  // waiters (deadline expired) keep their queue slot: the reader still pops
  // them against their responses, preserving FIFO stream sync.
  struct Waiter {
    MessageType expected = MessageType::kPing;
    std::string response;
    Status status = Status::Ok();
    bool done = false;
    bool abandoned = false;
  };

  // One pooled connection. Sends are serialized under `mu`; at most one
  // thread at a time is the READER (reads the socket with `mu` released —
  // `reader_active` excludes re-dials while it runs). Teardown only ever
  // calls Shutdown() on the socket; the fd is closed by the next dialer once
  // no reader is active, so there is no close/use race.
  struct Channel {
    explicit Channel(NetEndpoint ep) : endpoint(std::move(ep)) {}
    const NetEndpoint endpoint;
    Mutex mu;
    CondVar cv;
    Socket socket GUARDED_BY(mu);
    // Buffered response decoder. Like `socket`, used with `mu` released by
    // the one active reader; touched under `mu` only while no reader runs.
    FrameReader reader GUARDED_BY(mu);
    bool connected GUARDED_BY(mu) = false;
    bool reader_active GUARDED_BY(mu) = false;
    // Distinguishes a first dial from a re-dial after a torn connection
    // (only the latter counts as a reconnect in stats).
    bool ever_connected GUARDED_BY(mu) = false;
    std::deque<std::shared_ptr<Waiter>> waiters GUARDED_BY(mu);
  };

  struct EndpointPool {
    std::vector<std::unique_ptr<Channel>> channels;
  };

  // One RPC with connect/retry/backoff/deadline handling against the calling
  // thread's pool stripe. Takes the request as a SEALED frame (header + CRC +
  // arena payload, trace id baked in): sealed once per API call, the same
  // immutable frame is re-sent verbatim on every retry — serialization and
  // CRC never run twice. Returns the raw response payload (status still
  // encoded inside).
  Result<std::string> Call(size_t endpoint, const FrameBytes& request);
  // Same, but on an explicit stripe (fan-out issues chunks on distinct
  // stripes so they actually travel on different connections).
  Result<std::string> CallOnStripe(size_t endpoint, size_t stripe, const FrameBytes& request);
  // One pipelined attempt on a channel: dial if needed, send, wait FIFO.
  Result<std::string> CallOnce(Channel& channel, const FrameBytes& request, Duration remaining);
  // Fails every in-flight waiter and tears the connection down (Shutdown,
  // not Close — the reader may still be blocked in recv on the fd). Drops
  // the buffered bytes unless a reader still holds them.
  void FailChannelLocked(Channel& channel, const Status& status) REQUIRES(channel.mu);
  // Tears the channel down when nobody is left to drain it: no reader is
  // active and every queued waiter has been abandoned. Without this the
  // abandoned slots would stay occupied forever (the reader role is only
  // ever taken by a thread that has a waiter queued), wedging the pipeline.
  void FailChannelIfOrphanedLocked(Channel& channel) REQUIRES(channel.mu);
  // Reads responses off the socket, delivering to queue heads, until `own` is
  // done or the channel fails. Called with `lock` (on channel.mu) held and
  // reader_active set; drops the lock around each blocking FrameReader::Next.
  // (Opaque to the thread-safety analysis because of that unlock/relock.)
  void RunReader(Channel& channel, MutexLock& lock, const std::shared_ptr<Waiter>& own,
                 std::chrono::steady_clock::time_point deadline) NO_THREAD_SAFETY_ANALYSIS;
  Status CheckSession(const RemoteTxnSession& session) const;
  size_t StripeForThisThread() const;

  std::vector<EndpointPool> pools_;
  const RemoteAftClientOptions options_;
  std::atomic<size_t> next_endpoint_{0};
  Mutex rng_mu_;
  Rng rng_ GUARDED_BY(rng_mu_);
  RemoteAftClientStats stats_;

  // Registry instruments mirroring `stats_` (plain counters, shared by every
  // client in the process) plus per-method call latency and in-flight gauge.
  struct Instruments {
    obs::Counter* rpcs_sent = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* reconnects = nullptr;
    obs::Counter* fanouts = nullptr;
    obs::Gauge* inflight = nullptr;
    std::array<obs::Histogram*, 16> rpc_latency{};
  };
  Instruments metrics_;
};

}  // namespace net
}  // namespace aft

#endif  // SRC_NET_CLIENT_H_
