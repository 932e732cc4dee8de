// Shared machinery of the end-to-end benchmark: the report every workload
// fills, the closed-loop client driver, benchmark-side spans, and deltas of
// the program's own registry instruments.
//
// Spans are recorded only around the calls the benchmark makes into the
// program's public functions (FaaS chains, AftClient / RemoteAftClient
// calls); everything below those boundaries is read from the registry
// (obs::MetricsRegistry::Global()) as before/after deltas, so the program
// itself runs unmodified.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/baseline/anomaly_checker.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/core/aft_node.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch space inside the checkout: data dirs and the span dump.
  std::string work_dir;
};

// ---- Report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // Observations behind the value (transactions, reads, lookups, ...).
  uint64_t samples = 0;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, uint64_t samples);
  // Records a correctness check; a failed check fails the run.
  void Check(bool ok, const std::string& what);
  // A human-readable line printed before the result.
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failures_.empty(); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

// ---- Statistics -----------------------------------------------------------------

// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<double>& values, double q);

// Process CPU time (user + system) in seconds.
double ProcessCpuSeconds();
// Peak resident set size of the process in MiB.
double PeakRssMb();

inline double WallSecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// ---- Registry deltas ------------------------------------------------------------

// One parse of the global registry's Prometheus exposition.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take();

  // Sum over every series named exactly `name` whose label text contains all
  // of `labels` (each written as key="value").
  double Sum(std::string_view name, std::initializer_list<std::string_view> labels = {}) const;

  // Label values of `label` across the series named `name`.
  std::vector<std::string> LabelValues(std::string_view name, std::string_view label) const;

 private:
  struct Series {
    std::string name;
    std::string labels;
    double value = 0;
  };
  std::vector<Series> series_;
};

// Before/after pair over one measured phase.
struct RegistryDelta {
  RegistrySnapshot before;
  RegistrySnapshot after;

  double Count(std::string_view name, std::initializer_list<std::string_view> labels = {}) const {
    return after.Sum(name, labels) - before.Sum(name, labels);
  }
  // Exact mean of a histogram over the phase: delta(_sum) / delta(_count).
  double Mean(const std::string& histogram,
              std::initializer_list<std::string_view> labels = {}) const;
  double HistCount(const std::string& histogram,
                   std::initializer_list<std::string_view> labels = {}) const {
    return Count(histogram + "_count", labels);
  }
};

// ---- Spans ----------------------------------------------------------------------

enum class SpanName : uint8_t {
  kTxn,            // One logical transaction, retries included (the root).
  kFaasChain,      // FaasPlatform::InvokeChain.
  kFunction,       // One function body inside the chain.
  kClusterStart,   // AftClient::StartTransaction.
  kClusterRead,    // AftClient::GetVersioned.
  kClusterPut,     // AftClient::Put.
  kClusterCommit,  // AftClient::Commit.
  kNetStart,       // RemoteAftClient::StartTransaction.
  kNetGet,         // RemoteAftClient::GetVersioned.
  kNetPut,         // RemoteAftClient::Put.
  kNetCommit,      // RemoteAftClient::Commit.
  kCount,
};
inline constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);
const char* SpanNameString(SpanName name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t txn = 0;
  int32_t parent = -1;  // Index in the same thread's buffer; -1 for a root.
  SpanName name = SpanName::kTxn;
};

// Spans are kept in per-thread buffers (no locking on the record path) and
// only while tracing is on.
class SpanRecorder {
 public:
  static SpanRecorder& Global();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Drops every recorded span. Call only while no client thread runs.
  void Clear();

  struct Buffer {
    std::vector<Span> spans;
    std::vector<int32_t> open;
    uint64_t txn = 0;
  };
  Buffer& ThreadBuffer();
  // All buffers; read only after the client threads joined.
  const std::vector<std::unique_ptr<Buffer>>& buffers() const { return buffers_; }

  uint64_t NextTxnId() { return next_txn_.fetch_add(1, std::memory_order_relaxed) + 1; }

  // Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_txn_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder::Buffer* buffer_ = nullptr;
  int32_t index_ = -1;
};

// What the traced phase's spans say, per layer.
struct SpanSummary {
  uint64_t txns = 0;
  // Per span name: number of spans, mean duration and mean self time (ms of
  // wall time; callers rescale).
  std::array<uint64_t, kSpanNames> count{};
  std::array<double, kSpanNames> mean_ms{};
  std::array<double, kSpanNames> self_ms_per_txn{};
};
SpanSummary SummarizeSpans(const SpanRecorder& recorder);

// ---- Closed-loop driver -------------------------------------------------------

// One attempt of one logical transaction; `client` indexes the calling
// client thread. Fills `log` with what it observed.
using AttemptFn = std::function<aft::Status(size_t client, aft::Rng& rng, aft::TxnLog* log)>;

struct LoopOptions {
  size_t clients = 4;
  double seconds = 1;
  uint64_t seed = 1;
  // Stream tag so different loops of one run draw different inputs.
  uint64_t stream = 0;
  aft::Duration retry_backoff = aft::Millis(10);
};

struct LoopResult {
  // Latency of each committed transaction in the clock's milliseconds.
  std::vector<double> latencies_ms;
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t ryw_anomalies = 0;
  uint64_t fr_anomalies = 0;
  double wall_seconds = 0;
  double cpu_seconds = 0;
  std::string first_error;
};

// Runs `clients` threads; each issues transactions back to back (closed
// loop) until `seconds` of wall time have passed. Aborted and unavailable
// attempts are retried as a fresh transaction (up to 16 times, as
// AftRequestRunner does); a transaction that exhausts its retries counts as
// failed. Latency is measured on `clock`; every committed transaction's log
// goes through the anomaly checker.
LoopResult RunClosedLoop(const LoopOptions& options, aft::Clock& clock, const AttemptFn& attempt);

// A measured phase: one or more closed-loop windows of one workload.
//
// A run's figure is its best window's (lowest latency or CPU, highest
// rate). Host interference (CPU steal or a busy disk on a shared machine)
// only makes a window worse, so the best window filters it out as long as
// one window escaped it.
struct Phase {
  void Add(LoopResult window);
  double BestP(double q);       // Latency quantile.
  double BestRate();            // Committed transactions per wall second.
  double BestCpuMsPerTxn();     // Process CPU per committed transaction,
                                // over stretches of at least 2.5 s.

  std::vector<LoopResult> windows;
  LoopResult total;  // All windows pooled.
};

// Runs `windows` rounds of `a` then `b`, splitting `a_seconds` and
// `b_seconds` evenly over the rounds, so both phases see the same host
// conditions. `b_phase` may be null to run `a` alone.
void RunAlternating(const LoopOptions& options, aft::Clock& clock, size_t windows,
                    const AttemptFn& a, double a_seconds, Phase* a_phase, const AttemptFn& b,
                    double b_seconds, Phase* b_phase);

// AFT p50 / Plain p50: the median of the per-round ratios (each round's
// AFT and Plain windows saw the same host conditions).
double OverheadRatio(Phase& aft_phase, Phase& plain_phase);

// The anomaly checker's view of a versioned AFT read.
aft::ReadObservation ObservationOf(const std::string& key, const aft::AftNode::VersionedRead& read);

// Checks that the AFT transactions of `result` showed no read-your-writes
// and no fractured-read anomaly.
void CheckAftAnomalies(Report& report, const LoopResult& result);

// Adds txn_p50_ms, txn_p99_ms, txn_per_s, cpu_ms_per_txn, aft_overhead_p50
// and plain_p50_ms. `sim_seconds_per_wall_second` rescales throughput to
// the clock's units.
void AddLatencyMetrics(Report& report, Phase& aft_phase, Phase& plain_phase,
                       double sim_seconds_per_wall_second);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
