#include "perfbench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/obs/health.h"
#include "src/obs/metrics.h"

namespace perfbench {

// ---- Report -------------------------------------------------------------------

void Report::Add(std::string name, double value, std::string unit, uint64_t samples) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void Report::Check(bool ok, const std::string& what) {
  Note(std::string(ok ? "check ok:   " : "check FAIL: ") + what);
  if (!ok) {
    failures_.push_back(what);
  }
}

// ---- Statistics -----------------------------------------------------------------

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// ---- Registry deltas ------------------------------------------------------------

RegistrySnapshot RegistrySnapshot::Take() {
  auto& registry = aft::obs::MetricsRegistry::Global();
  aft::obs::SyncContentionMetrics(registry);
  RegistrySnapshot snapshot;
  std::istringstream in(registry.Exposition());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      continue;
    }
    Series series;
    const std::string key = line.substr(0, space);
    series.value = std::strtod(line.c_str() + space + 1, nullptr);
    const size_t brace = key.find('{');
    series.name = key.substr(0, brace);
    if (brace != std::string::npos) {
      series.labels = key.substr(brace);
    }
    snapshot.series_.push_back(std::move(series));
  }
  return snapshot;
}

double RegistrySnapshot::Sum(std::string_view name,
                             std::initializer_list<std::string_view> labels) const {
  double total = 0;
  for (const Series& series : series_) {
    if (series.name != name) {
      continue;
    }
    bool match = true;
    for (std::string_view label : labels) {
      if (series.labels.find(label) == std::string::npos) {
        match = false;
        break;
      }
    }
    if (match) {
      total += series.value;
    }
  }
  return total;
}

std::vector<std::string> RegistrySnapshot::LabelValues(std::string_view name,
                                                       std::string_view label) const {
  std::vector<std::string> values;
  const std::string prefix = std::string(label) + "=\"";
  for (const Series& series : series_) {
    if (series.name != name) {
      continue;
    }
    const size_t at = series.labels.find(prefix);
    if (at == std::string::npos) {
      continue;
    }
    const size_t begin = at + prefix.size();
    const size_t end = series.labels.find('"', begin);
    std::string value = series.labels.substr(begin, end - begin);
    if (std::find(values.begin(), values.end(), value) == values.end()) {
      values.push_back(std::move(value));
    }
  }
  return values;
}

double RegistryDelta::Mean(const std::string& histogram,
                           std::initializer_list<std::string_view> labels) const {
  const double count = Count(histogram + "_count", labels);
  return count > 0 ? Count(histogram + "_sum", labels) / count : 0;
}

// ---- Spans ----------------------------------------------------------------------

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kTxn:
      return "txn";
    case SpanName::kFaasChain:
      return "faas.invoke_chain";
    case SpanName::kFunction:
      return "faas.function";
    case SpanName::kClusterStart:
      return "cluster.start";
    case SpanName::kClusterRead:
      return "cluster.read";
    case SpanName::kClusterPut:
      return "cluster.put";
    case SpanName::kClusterCommit:
      return "cluster.commit";
    case SpanName::kNetStart:
      return "net.start";
    case SpanName::kNetGet:
      return "net.get";
    case SpanName::kNetPut:
      return "net.put";
    case SpanName::kNetCommit:
      return "net.commit";
    case SpanName::kCount:
      break;
  }
  return "unknown";
}

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) {
    buffer->spans.clear();
    buffer->open.clear();
  }
}

SpanRecorder::Buffer& SpanRecorder::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1 << 16);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<Span>& spans = buffers_[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      // Span ids are <thread>.<index>; parents live on the same thread.
      out << "{\"id\":\"" << t << '.' << i << "\",\"parent\":";
      if (s.parent >= 0) {
        out << '"' << t << '.' << s.parent << '"';
      } else {
        out << "null";
      }
      out << ",\"txn\":" << s.txn << ",\"name\":\"" << SpanNameString(s.name)
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanName name) {
  SpanRecorder& recorder = SpanRecorder::Global();
  if (!recorder.enabled()) {
    return;
  }
  buffer_ = &recorder.ThreadBuffer();
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  index_ = static_cast<int32_t>(buffer_->spans.size());
  if (name == SpanName::kTxn || buffer_->open.empty()) {
    buffer_->txn = recorder.NextTxnId();
  } else {
    span.parent = buffer_->open.back();
  }
  span.txn = buffer_->txn;
  buffer_->spans.push_back(span);
  buffer_->open.push_back(index_);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) {
    return;
  }
  buffer_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  buffer_->open.pop_back();
}

SpanSummary SummarizeSpans(const SpanRecorder& recorder) {
  SpanSummary summary;
  std::array<double, kSpanNames> total_ms{};
  std::array<double, kSpanNames> self_ms{};
  for (const auto& buffer : recorder.buffers()) {
    const std::vector<Span>& spans = buffer->spans;
    // Time covered by direct children, per span.
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ms[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      const size_t n = static_cast<size_t>(s.name);
      summary.count[n] += 1;
      total_ms[n] += dur;
      self_ms[n] += std::max(0.0, dur - child_ms[i]);
    }
  }
  summary.txns = summary.count[static_cast<size_t>(SpanName::kTxn)];
  for (size_t n = 0; n < kSpanNames; ++n) {
    summary.mean_ms[n] = summary.count[n] > 0 ? total_ms[n] / summary.count[n] : 0;
    summary.self_ms_per_txn[n] = summary.txns > 0 ? self_ms[n] / summary.txns : 0;
  }
  return summary;
}

// ---- Closed-loop driver -------------------------------------------------------

namespace {

constexpr int kMaxRetries = 16;

}  // namespace

LoopResult RunClosedLoop(const LoopOptions& options, aft::Clock& clock, const AttemptFn& attempt) {
  struct PerClient {
    std::vector<double> latencies_ms;
    uint64_t attempted = 0, committed = 0, failed = 0, retries = 0, ryw = 0, fr = 0;
    std::string first_error;
  };
  std::vector<PerClient> per_client(options.clients);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  const double cpu_start = ProcessCpuSeconds();

  auto client_loop = [&](size_t c) {
    PerClient& mine = per_client[c];
    aft::Rng rng((options.seed * 0x9e3779b97f4a7c15ULL) ^ (options.stream << 32) ^ (c + 1));
    while (std::chrono::steady_clock::now() < deadline) {
      ScopedSpan txn_span(SpanName::kTxn);
      aft::TxnLog log;
      ++mine.attempted;
      const aft::TimePoint begin = clock.Now();
      aft::Status status = aft::Status::Ok();
      for (int retry = 0; retry <= kMaxRetries; ++retry) {
        if (retry > 0) {
          ++mine.retries;
          clock.SleepFor(options.retry_backoff);
        }
        log = aft::TxnLog{};
        status = attempt(c, rng, &log);
        if (status.ok() || (!status.IsAborted() && !status.IsUnavailable())) {
          break;
        }
      }
      if (!status.ok()) {
        ++mine.failed;
        if (mine.first_error.empty()) {
          mine.first_error = status.ToString();
        }
        continue;
      }
      mine.latencies_ms.push_back(aft::ToMillis(clock.Now() - begin));
      ++mine.committed;
      const aft::AnomalyVerdict verdict = aft::CheckTransaction(log);
      mine.ryw += verdict.ryw_anomaly ? 1 : 0;
      mine.fr += verdict.fr_anomaly ? 1 : 0;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(options.clients);
  for (size_t c = 0; c < options.clients; ++c) {
    threads.emplace_back(client_loop, c);
  }
  for (auto& thread : threads) {
    thread.join();
  }

  LoopResult result;
  result.wall_seconds = WallSecondsSince(start);
  result.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  for (PerClient& mine : per_client) {
    result.latencies_ms.insert(result.latencies_ms.end(), mine.latencies_ms.begin(),
                               mine.latencies_ms.end());
    result.attempted += mine.attempted;
    result.committed += mine.committed;
    result.failed += mine.failed;
    result.retries += mine.retries;
    result.ryw_anomalies += mine.ryw;
    result.fr_anomalies += mine.fr;
    if (result.first_error.empty()) {
      result.first_error = mine.first_error;
    }
  }
  return result;
}

// ---- Phases -------------------------------------------------------------------

void Phase::Add(LoopResult window) {
  total.latencies_ms.insert(total.latencies_ms.end(), window.latencies_ms.begin(),
                            window.latencies_ms.end());
  total.attempted += window.attempted;
  total.committed += window.committed;
  total.failed += window.failed;
  total.retries += window.retries;
  total.ryw_anomalies += window.ryw_anomalies;
  total.fr_anomalies += window.fr_anomalies;
  total.wall_seconds += window.wall_seconds;
  total.cpu_seconds += window.cpu_seconds;
  if (total.first_error.empty()) {
    total.first_error = window.first_error;
  }
  windows.push_back(std::move(window));
}

namespace {

double Rate(const LoopResult& r) {
  return r.wall_seconds > 0 ? static_cast<double>(r.committed) / r.wall_seconds : 0;
}

double CpuMsPerTxn(const LoopResult& r) {
  return r.committed > 0 ? r.cpu_seconds * 1000.0 / static_cast<double>(r.committed) : 0;
}

// The best window's value: interference from other tenants of the host only
// ever makes a window slower, so the best window is the one it touched least.
double Best(Phase& phase, bool higher_is_better, const std::function<double(LoopResult&)>& f) {
  std::vector<double> values;
  for (LoopResult& window : phase.windows) {
    values.push_back(f(window));
  }
  if (values.empty()) {
    return 0;
  }
  return higher_is_better ? *std::max_element(values.begin(), values.end())
                          : *std::min_element(values.begin(), values.end());
}

}  // namespace

double Phase::BestP(double q) {
  return Best(*this, false, [q](LoopResult& r) { return Quantile(r.latencies_ms, q); });
}

double Phase::BestRate() { return Best(*this, true, perfbench::Rate); }

double Phase::BestCpuMsPerTxn() {
  // CPU is judged over stretches of consecutive windows long enough to
  // hold a few of the once-a-second GC rounds, so no stretch dodges them.
  constexpr double kMinStretchSeconds = 2.5;
  double best = 0;
  LoopResult stretch;
  for (const LoopResult& window : windows) {
    stretch.committed += window.committed;
    stretch.cpu_seconds += window.cpu_seconds;
    stretch.wall_seconds += window.wall_seconds;
    if (stretch.wall_seconds >= kMinStretchSeconds || &window == &windows.back()) {
      const double cpu = perfbench::CpuMsPerTxn(stretch);
      best = best == 0 ? cpu : std::min(best, cpu);
      stretch = LoopResult{};
    }
  }
  return best;
}

void RunAlternating(const LoopOptions& options, aft::Clock& clock, size_t windows,
                    const AttemptFn& a, double a_seconds, Phase* a_phase, const AttemptFn& b,
                    double b_seconds, Phase* b_phase) {
  LoopOptions window = options;
  for (size_t w = 0; w < windows; ++w) {
    window.stream = options.stream + 2 * w;
    window.seconds = a_seconds / static_cast<double>(windows);
    a_phase->Add(RunClosedLoop(window, clock, a));
    if (b_phase != nullptr) {
      window.stream = options.stream + 2 * w + 1;
      window.seconds = b_seconds / static_cast<double>(windows);
      b_phase->Add(RunClosedLoop(window, clock, b));
    }
  }
}

double OverheadRatio(Phase& aft_phase, Phase& plain_phase) {
  std::vector<double> ratios;
  for (size_t w = 0; w < std::min(aft_phase.windows.size(), plain_phase.windows.size()); ++w) {
    const double plain_p50 = Quantile(plain_phase.windows[w].latencies_ms, 0.5);
    if (plain_p50 > 0) {
      ratios.push_back(Quantile(aft_phase.windows[w].latencies_ms, 0.5) / plain_p50);
    }
  }
  return Quantile(ratios, 0.5);
}

aft::ReadObservation ObservationOf(const std::string& key, const aft::AftNode::VersionedRead& read) {
  aft::ReadObservation obs;
  obs.key = key;
  obs.version = read.version;
  if (read.record != nullptr) {
    // Alias the record's write set; the shared_ptr keeps the record alive.
    obs.cowritten = std::shared_ptr<const std::vector<std::string>>(read.record,
                                                                    &read.record->write_set);
  }
  return obs;
}

void CheckAftAnomalies(Report& report, const LoopResult& result) {
  report.Check(result.ryw_anomalies == 0 && result.fr_anomalies == 0,
               "AFT shows no RYW / fractured reads (" + std::to_string(result.ryw_anomalies) +
                   "/" + std::to_string(result.fr_anomalies) + " of " +
                   std::to_string(result.committed) + " txns)");
}

void AddLatencyMetrics(Report& report, Phase& aft_phase, Phase& plain_phase,
                       double sim_seconds_per_wall_second) {
  const uint64_t n = aft_phase.total.committed;
  const size_t rounds = aft_phase.windows.size();
  uint64_t fewest = n;
  for (const LoopResult& window : aft_phase.windows) {
    fewest = std::min<uint64_t>(fewest, window.committed);
  }
  report.Add("txn_p50_ms", aft_phase.BestP(0.50), "ms", fewest);
  // The tail is pooled over the whole phase, so that at least ten samples
  // lie beyond it.
  report.Add("txn_p99_ms", Quantile(aft_phase.total.latencies_ms, 0.99), "ms", n);
  report.Add("txn_per_s", aft_phase.BestRate() / sim_seconds_per_wall_second, "1/s", fewest);
  report.Add("cpu_ms_per_txn", aft_phase.BestCpuMsPerTxn(), "ms", fewest);
  report.Add("aft_overhead_p50", OverheadRatio(aft_phase, plain_phase), "ratio",
             std::min(n, plain_phase.total.committed));
  report.Add("plain_p50_ms", Quantile(plain_phase.total.latencies_ms, 0.5), "ms",
             plain_phase.total.committed);
  report.Note("statistics: best of " + std::to_string(rounds) + " rounds (the smallest with " +
              std::to_string(fewest) + " txns); txn_p99_ms pooled, " + std::to_string(n / 100) +
              " samples beyond it; " + std::to_string(aft_phase.total.retries) +
              " aborted attempts retried");
}

}  // namespace perfbench
