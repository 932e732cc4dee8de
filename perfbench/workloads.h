// The benchmark's workloads and the per-layer report they share.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/common.h"

namespace perfbench {

// Wall seconds per simulated second on s3-fig3. Pinned: every reported
// latency there is in simulated ms, and the scale decides how much sleep
// overshoot leaks into them.
inline constexpr double kS3TimeScale = 0.05;

// Paper Fig 3 over simulated S3: FaaS chain -> in-proc cluster -> core ->
// SimS3, AFT and Plain within one run. Latencies in simulated ms.
void RunS3Fig3(const RunOptions& options, Report& report);

// The store behind the TCP workloads' node.
enum class TcpStore {
  kInstant,  // tcp-mem: zero-latency SimDynamo.
  kLocal,    // tcp-durable: LocalEngine with fdatasync.
};

// RemoteAftClient -> loopback TCP service -> AftNode -> `store`.
void RunTcp(const RunOptions& options, TcpStore store, Report& report);

// Everything the traced phase measured, turned into per-layer metrics.
struct LayerInputs {
  const RegistryDelta* registry = nullptr;
  SpanSummary spans;
  // Committed transactions of the traced phase (the per-txn base).
  uint64_t txns = 0;
  // Workload ms per wall ms (1 / time scale on simulated-latency workloads).
  double time_factor = 1;
  uint64_t faas_invocations = 0;
  uint64_t faas_retries = 0;
  uint64_t gossip_rounds = 0;
  // Payload bytes of the traced phase's committed writes.
  uint64_t user_bytes_written = 0;
  // LocalEngine file_stats() at the end of the run; zero elsewhere.
  uint64_t wal_total_bytes = 0;
  uint64_t wal_dead_bytes = 0;
  double untraced_p50_ms = 0;
  double traced_p50_ms = 0;
};

// Adds every per-layer metric (the same set on every workload; a layer the
// workload does not cross reports 0).
void AddLayerMetrics(Report& report, const LayerInputs& in);

// Brackets the traced phase: spans and sampled lock profiling are on only
// inside it, and the registry is snapshotted at both ends.
class TraceWindow {
 public:
  void Begin();
  // Stops tracing, summarizes the spans and writes them to `span_path`.
  void End(const std::string& span_path, Report& report);

  RegistryDelta registry;
  SpanSummary spans;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
