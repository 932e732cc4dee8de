// s3-fig3: the paper's Figure 3 transaction over simulated S3.
//
// 2 functions x (2 reads + 1 write) of 4 KiB values, Zipf 1.0 over 1,000
// keys. AFT path: FaaS chain -> AftClient (in-proc cluster, 1 node, data
// cache off as in Fig 3) -> AftNode -> SimS3. The same plan generator then
// drives PlainRequestRunner against the same engine, so the AFT/Plain ratio
// is taken within one run. Storage-round-trip bound: commit batching, client
// hops and reads per transaction show here; CPU work does not.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/cluster/aft_client.h"
#include "src/cluster/deployment.h"
#include "src/faas/faas_platform.h"
#include "src/storage/sim_s3.h"
#include "src/workload/dataset.h"
#include "src/workload/runners.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

constexpr double kTimeScale = kS3TimeScale;
// Set-up and recovery each take milliseconds and include one randomly
// drawn simulated LIST, so both are repeated many times.
constexpr int kSetups = 9;
constexpr int kRecoveries = 15;
constexpr size_t kClients = 4;
// AFT and Plain alternate in this many rounds (three-second AFT rounds of
// about 650 transactions at --seconds 20).
constexpr size_t kRounds = 4;

aft::WorkloadSpec Spec() {
  aft::WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.zipf_theta = 1.0;
  spec.value_bytes = 4096;
  spec.num_functions = 2;
  spec.reads_per_function = 2;
  spec.writes_per_function = 1;
  return spec;
}

struct Env {
  explicit Env(aft::Clock& clock) : engine(clock) {}
  aft::SimS3 engine;
  std::unique_ptr<aft::ClusterDeployment> cluster;
};

std::unique_ptr<Env> SetUp(aft::Clock& clock, const aft::WorkloadSpec& spec) {
  auto env = std::make_unique<Env>(clock);
  (void)aft::LoadAftDataset(env->engine, spec);
  aft::ClusterOptions options;
  options.num_nodes = 1;
  options.node_options.data_cache_bytes = 0;
  env->cluster = std::make_unique<aft::ClusterDeployment>(env->engine, clock, options);
  if (!env->cluster->Start().ok()) {
    return nullptr;
  }
  return env;
}

// One AFT attempt, as AftRequestRunner runs it, with a span around every
// call into faas and cluster.
aft::Status AftAttempt(aft::FaasPlatform& faas, aft::AftClient& client,
                       const aft::TxnPlanGenerator& plans, aft::Rng& rng, aft::TxnLog* log) {
  const aft::TxnPlan plan = plans.Generate(rng);
  aft::Result<aft::TxnSession> started = [&] {
    ScopedSpan span(SpanName::kClusterStart);
    return client.StartTransaction();
  }();
  if (!started.ok()) {
    return started.status();
  }
  const aft::TxnSession session = *started;
  log->self = aft::TxnId(0, session.txid);

  std::vector<aft::FaasFunction> chain;
  for (size_t f = 0; f < plan.functions.size(); ++f) {
    chain.push_back([&, f](int attempt) -> aft::Status {
      ScopedSpan function_span(SpanName::kFunction);
      if (attempt > 0) {
        AFT_RETURN_IF_ERROR(client.Resume(session));
      }
      std::vector<aft::TxnLog::Event> staged;
      for (const aft::OpPlan& op : plan.functions[f]) {
        if (op.is_read) {
          ScopedSpan span(SpanName::kClusterRead);
          AFT_ASSIGN_OR_RETURN(aft::AftNode::VersionedRead read,
                               client.GetVersioned(session, op.key));
          staged.push_back({aft::TxnLog::Event::Kind::kRead, op.key, ObservationOf(op.key, read)});
        } else {
          std::string payload = aft::MakePayload(plans.spec(), rng());
          ScopedSpan span(SpanName::kClusterPut);
          AFT_RETURN_IF_ERROR(client.Put(session, op.key, std::move(payload)));
          staged.push_back({aft::TxnLog::Event::Kind::kWrite, op.key, aft::ReadObservation{}});
        }
      }
      log->events.insert(log->events.end(), staged.begin(), staged.end());
      return aft::Status::Ok();
    });
  }
  aft::Status status = [&] {
    ScopedSpan span(SpanName::kFaasChain);
    return faas.InvokeChain(chain);
  }();
  if (!status.ok()) {
    (void)client.Abort(session);
    return status;
  }
  ScopedSpan span(SpanName::kClusterCommit);
  return client.Commit(session).status();
}

}  // namespace

void RunS3Fig3(const RunOptions& options, Report& report) {
  // Created before any thread so every thread inherits its timer slack.
  // Pure sleeps: four clients spinning would serialize on four cores.
  aft::RealClock clock(kTimeScale, aft::Duration::zero());
  const aft::WorkloadSpec spec = Spec();
  const aft::TxnPlanGenerator plans(spec);
  report.Note("s3-fig3: sim time scale " + std::to_string(kTimeScale) +
              " (latencies and txn/s in simulated units; cpu_ms_per_txn in real CPU ms)");

  // ---- set-up: dataset load + deployment start, median of several ----
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();
    const auto start = std::chrono::steady_clock::now();
    env = SetUp(clock, spec);
    setup_s.push_back(WallSecondsSince(start));
    if (env == nullptr) {
      report.Check(false, "s3-fig3 deployment starts");
      return;
    }
  }

  // The Plain baseline's dataset goes into the same engine (its keys do
  // not collide with AFT's "v/" and "c/" records); not part of set-up.
  (void)aft::LoadPlainDataset(env->engine, spec);

  aft::FaasPlatform faas(clock);
  aft::AftClient client(env->cluster->balancer(), clock);
  const AttemptFn aft_attempt = [&](size_t, aft::Rng& rng, aft::TxnLog* log) {
    return AftAttempt(faas, client, plans, rng, log);
  };
  aft::PlainRequestRunner plain_runner(faas, env->engine, clock, plans);
  const AttemptFn plain_attempt = [&](size_t, aft::Rng& rng, aft::TxnLog* log) {
    return plain_runner.RunOnce(rng, log);
  };

  // AFT gets 60% of the measured time and Plain 40%, alternating in rounds;
  // a traced run gives half of the AFT share to a traced phase at the end.
  const double aft_seconds = options.seconds * (options.trace ? 0.3 : 0.6);
  const double plain_seconds = options.seconds * 0.4;
  LoopOptions loop;
  loop.clients = kClients;
  loop.seed = options.seed;

  // Warm-up (unmeasured): first node calls, lazy registry children.
  loop.seconds = 0.3;
  (void)RunClosedLoop(loop, clock, aft_attempt);

  Phase aft_phase;
  Phase plain_phase;
  loop.stream = 1;
  RunAlternating(loop, clock, kRounds, aft_attempt, aft_seconds, &aft_phase, plain_attempt,
                 plain_seconds, &plain_phase);

  LayerInputs layers;
  TraceWindow window;
  Phase traced;
  if (options.trace) {
    const uint64_t invocations = faas.stats().invocations.load();
    const uint64_t retries = faas.stats().retries.load();
    const uint64_t rounds = env->cluster->bus().stats().rounds.load();
    loop.stream = 1000;
    window.Begin();
    RunAlternating(loop, clock, kRounds, aft_attempt, aft_seconds, &traced, nullptr, 0, nullptr);
    window.End(options.work_dir + "/spans-s3-fig3.jsonl", report);
    layers.faas_invocations = faas.stats().invocations.load() - invocations;
    layers.faas_retries = faas.stats().retries.load() - retries;
    layers.gossip_rounds = env->cluster->bus().stats().rounds.load() - rounds;
  }
  const double peak_rss_mb = PeakRssMb();

  // ---- recovery: a fresh node bootstraps from the commit set left behind ----
  env->cluster->Stop();
  std::vector<double> recovery_s;
  for (int i = 0; i < kRecoveries; ++i) {
    const auto start = std::chrono::steady_clock::now();
    aft::AftNodeOptions node_options;
    node_options.data_cache_bytes = 0;
    aft::AftNode node("recovery", env->engine, clock, node_options);
    const aft::Status started = node.Start();
    recovery_s.push_back(WallSecondsSince(start));
    if (!started.ok()) {
      report.Check(false, "s3-fig3 recovery node starts: " + started.ToString());
      return;
    }
  }

  // ---- correctness ----
  const LoopResult& aft_total = aft_phase.total;
  const LoopResult& plain_total = plain_phase.total;
  CheckAftAnomalies(report, aft_total);
  if (options.trace) {
    CheckAftAnomalies(report, traced.total);
  }
  report.Check(plain_total.ryw_anomalies + plain_total.fr_anomalies > 0,
               "Plain baseline shows anomalies, so the checker catches them (" +
                   std::to_string(plain_total.ryw_anomalies) + " RYW, " +
                   std::to_string(plain_total.fr_anomalies) + " FR of " +
                   std::to_string(plain_total.committed) + " txns)");
  report.Check(plain_total.failed == 0, "Plain baseline has no failed transactions");
  if (!aft_total.first_error.empty()) {
    report.Note("first AFT failure: " + aft_total.first_error);
  }

  // ---- end-to-end metrics ----
  report.attempted = aft_total.attempted + traced.total.attempted + plain_total.attempted;
  report.failed = aft_total.failed + traced.total.failed + plain_total.failed;
  AddLatencyMetrics(report, aft_phase, plain_phase, 1.0 / kTimeScale);
  report.Add("peak_rss_mb", peak_rss_mb, "MiB", 1);
  // Best of the repeats, which all recover the same state.
  report.Add("recovery_s", *std::min_element(recovery_s.begin(), recovery_s.end()), "s",
             recovery_s.size());
  report.Add("setup_s", Quantile(setup_s, 0.5), "s", setup_s.size());

  if (options.trace) {
    layers.registry = &window.registry;
    layers.spans = window.spans;
    layers.txns = traced.total.committed;
    layers.time_factor = 1.0 / kTimeScale;
    layers.untraced_p50_ms = aft_phase.BestP(0.5);
    layers.traced_p50_ms = traced.BestP(0.5);
    AddLayerMetrics(report, layers);
  }
}

}  // namespace perfbench
