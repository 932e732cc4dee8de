// tcp-mem and tcp-durable: RemoteAftClient -> ClusterDeployment{kTcp}
// service endpoint -> AftNode, with no FaaS layer and no modelled CPU sleep
// (service_cores = 0). Node background GC and the fault manager's global GC
// run. Real time throughout: latencies are wall-clock ms.
//
// tcp-mem: zero-latency SimDynamo, 2 x (2 reads + 1 write), Zipf 1.0 over
// 1,000 keys (4 MiB, inside the 64 MiB data cache). Bound by CPU and the
// wire: net framing, event loop and worker hop, the read algorithm, commit
// CPU and GC show here; storage-latency policy does not.
//
// tcp-durable: LocalEngine with fdatasync, 2 x (1 read + 2 writes), Zipf 0.5
// over 32,768 keys (128 MiB, twice the data cache). Bound by fsync and disk:
// WAL group commit, fused CommitUnits, compaction and cache-miss preads.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/workloads.h"
#include "src/cluster/deployment.h"
#include "src/core/records.h"
#include "src/faas/faas_platform.h"
#include "src/net/client.h"
#include "src/storage/local_engine.h"
#include "src/storage/sim_dynamo.h"
#include "src/workload/runners.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

constexpr size_t kClients = 4;
// At most one connection per client thread.
constexpr size_t kConnections = 4;

struct Shape {
  const char* name;
  aft::WorkloadSpec spec;
  int setups;
  int recoveries;
};

Shape ShapeFor(TcpStore store) {
  aft::WorkloadSpec spec;
  spec.value_bytes = 4096;
  spec.num_functions = 2;
  if (store == TcpStore::kLocal) {
    spec.num_keys = 32768;
    spec.zipf_theta = 0.5;
    spec.reads_per_function = 1;
    spec.writes_per_function = 2;
    return Shape{"tcp-durable", spec, 3, 3};
  }
  spec.num_keys = 1000;
  spec.zipf_theta = 1.0;
  spec.reads_per_function = 2;
  spec.writes_per_function = 1;
  return Shape{"tcp-mem", spec, 15, 21};
}

// The InstantDynamo profile of bench_net: every modelled latency zeroed.
aft::SimDynamoOptions InstantDynamo() {
  aft::SimDynamoOptions options;
  const aft::LatencyModel zero = aft::LatencyModel::Zero();
  options.profile = aft::EngineLatencyProfile{zero, zero, zero, zero, zero, zero};
  options.staleness = aft::StalenessModel{};
  options.txn_call = zero;
  return options;
}

// Writes `ops` in engine-sized batches.
aft::Status FlushBatches(aft::StorageEngine& engine, std::vector<aft::WriteOp>& ops) {
  const size_t max_batch = std::max<size_t>(engine.MaxBatchSize(), 1);
  for (size_t at = 0; at < ops.size(); at += max_batch) {
    const size_t n = std::min(max_batch, ops.size() - at);
    AFT_RETURN_IF_ERROR(engine.BatchPut(std::span<const aft::WriteOp>(ops.data() + at, n)));
  }
  ops.clear();
  return aft::Status::Ok();
}

// Loads the dataset in AFT's on-storage format (src/core/records.h): one
// version plus one single-key commit record per key, timestamp 1, written
// with batched engine writes. (LoadAftDataset falls back to one fsynced Put
// per key on LocalEngine.) Returns each key's version.
aft::Result<std::vector<aft::TxnId>> LoadAftBatched(aft::StorageEngine& engine,
                                                    const aft::WorkloadSpec& spec) {
  aft::Rng rng(0xDA7A5EEDULL);
  std::vector<aft::TxnId> versions;
  std::vector<aft::WriteOp> ops;
  for (uint64_t rank = 0; rank < spec.num_keys; ++rank) {
    const std::string key = aft::KeyForRank(rank);
    const aft::TxnId writer(1, aft::Uuid::Random(rng));
    const std::vector<std::string> write_set{key};
    const aft::VersionedValue value{writer, write_set, aft::MakePayload(spec, rank)};
    ops.push_back({aft::VersionStorageKey(key, writer.uuid), value.Serialize()});
    aft::CommitRecord record;
    record.id = writer;
    record.write_set = write_set;
    ops.push_back({aft::CommitStorageKey(writer), record.Serialize()});
    versions.push_back(writer);
    if (ops.size() >= 1024) {
      AFT_RETURN_IF_ERROR(FlushBatches(engine, ops));
    }
  }
  AFT_RETURN_IF_ERROR(FlushBatches(engine, ops));
  return versions;
}

// The Plain baseline's format: user key -> metadata-embedding value.
aft::Status LoadPlainBatched(aft::StorageEngine& engine, const aft::WorkloadSpec& spec) {
  aft::Rng rng(0xDA7A5EEDULL);
  std::vector<aft::WriteOp> ops;
  for (uint64_t rank = 0; rank < spec.num_keys; ++rank) {
    const std::string key = aft::KeyForRank(rank);
    const aft::VersionedValue value{aft::TxnId(1, aft::Uuid::Random(rng)), {key},
                                    aft::MakePayload(spec, rank)};
    ops.push_back({key, value.Serialize()});
    if (ops.size() >= 1024) {
      AFT_RETURN_IF_ERROR(FlushBatches(engine, ops));
    }
  }
  return FlushBatches(engine, ops);
}

// One deployment over one engine.
struct Env {
  std::string data_dir;  // LocalEngine only.
  std::unique_ptr<aft::StorageEngine> engine;
  std::vector<aft::TxnId> dataset_versions;
  std::unique_ptr<aft::ClusterDeployment> cluster;
};

aft::AftNodeOptions NodeOptions() {
  aft::AftNodeOptions options;
  options.service_cores = 0;
  options.enable_background_threads = true;
  return options;
}

aft::Result<std::unique_ptr<aft::StorageEngine>> OpenEngine(TcpStore store,
                                                            const std::string& data_dir,
                                                            aft::Clock& clock) {
  if (store == TcpStore::kInstant) {
    return std::unique_ptr<aft::StorageEngine>(
        std::make_unique<aft::SimDynamo>(clock, InstantDynamo()));
  }
  AFT_ASSIGN_OR_RETURN(std::unique_ptr<aft::LocalEngine> engine, aft::LocalEngine::Open(data_dir));
  return std::unique_ptr<aft::StorageEngine>(std::move(engine));
}

aft::Result<std::unique_ptr<Env>> SetUp(TcpStore store, const std::string& data_dir,
                                        aft::Clock& clock, const aft::WorkloadSpec& spec) {
  auto env = std::make_unique<Env>();
  env->data_dir = data_dir;
  AFT_ASSIGN_OR_RETURN(env->engine, OpenEngine(store, data_dir, clock));
  AFT_ASSIGN_OR_RETURN(env->dataset_versions, LoadAftBatched(*env->engine, spec));
  aft::ClusterOptions options;
  options.num_nodes = 1;
  options.transport = aft::ClusterTransport::kTcp;
  options.node_options = NodeOptions();
  env->cluster = std::make_unique<aft::ClusterDeployment>(*env->engine, clock, options);
  AFT_RETURN_IF_ERROR(env->cluster->Start());
  return env;
}

void TearDown(std::unique_ptr<Env>& env) {
  if (env == nullptr) {
    return;
  }
  if (env->cluster != nullptr) {
    env->cluster->Stop();
  }
  env->cluster.reset();
  env->engine.reset();
  if (!env->data_dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(env->data_dir, ignored);
  }
  env.reset();
}

// Waits until the commit records in storage stop changing for a while (GC
// rounds run every second), or at most kGcDrainLimit.
void DrainGc(aft::StorageEngine& engine) {
  constexpr auto kPoll = std::chrono::milliseconds(250);
  constexpr int kStablePolls = 6;
  constexpr auto kGcDrainLimit = std::chrono::seconds(6);
  const auto deadline = std::chrono::steady_clock::now() + kGcDrainLimit;
  size_t last = SIZE_MAX;
  int stable = 0;
  while (stable < kStablePolls && std::chrono::steady_clock::now() < deadline) {
    aft::Result<std::vector<std::string>> records = engine.List(aft::kCommitPrefix);
    const size_t now = records.ok() ? records->size() : 0;
    stable = now == last ? stable + 1 : 0;
    last = now;
    std::this_thread::sleep_for(kPoll);
  }
}

// Tears every deployment down concurrently.
void TearDownAll(std::vector<std::unique_ptr<Env>>& envs) {
  std::vector<std::thread> threads;
  for (auto& env : envs) {
    threads.emplace_back([&env] { TearDown(env); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  envs.clear();
}

// Newest acknowledged commit per key, one map per client thread.
using NewestCommits = std::vector<std::unordered_map<std::string, aft::TxnId>>;

struct AttemptContext {
  aft::net::RemoteAftClient* client = nullptr;
  const aft::TxnPlanGenerator* plans = nullptr;
  NewestCommits* newest = nullptr;
  std::atomic<uint64_t>* user_bytes = nullptr;
};

aft::Status TcpAttempt(const AttemptContext& ctx, size_t c, aft::Rng& rng, aft::TxnLog* log) {
  aft::net::RemoteAftClient& client = *ctx.client;
  const aft::TxnPlan plan = ctx.plans->Generate(rng);
  aft::Result<aft::net::RemoteTxnSession> started = [&] {
    ScopedSpan span(SpanName::kNetStart);
    return client.StartTransaction();
  }();
  if (!started.ok()) {
    return started.status();
  }
  const aft::net::RemoteTxnSession session = *started;
  log->self = aft::TxnId(0, session.txid);
  auto fail = [&](const aft::Status& status) {
    (void)client.Abort(session);
    return status;
  };
  for (const std::vector<aft::OpPlan>& function : plan.functions) {
    for (const aft::OpPlan& op : function) {
      if (op.is_read) {
        aft::Result<aft::AftNode::VersionedRead> read = [&] {
          ScopedSpan span(SpanName::kNetGet);
          return client.GetVersioned(session, op.key);
        }();
        if (!read.ok()) {
          return fail(read.status());
        }
        log->AddRead(ObservationOf(op.key, *read));
      } else {
        std::string payload = aft::MakePayload(ctx.plans->spec(), rng());
        aft::Status put = [&] {
          ScopedSpan span(SpanName::kNetPut);
          return client.Put(session, op.key, std::move(payload));
        }();
        if (!put.ok()) {
          return fail(put);
        }
        log->AddWrite(op.key);
      }
    }
  }
  aft::Result<aft::TxnId> committed = [&] {
    ScopedSpan span(SpanName::kNetCommit);
    return client.Commit(session);
  }();
  if (!committed.ok()) {
    return committed.status();
  }
  auto& newest = (*ctx.newest)[c];
  for (const std::string& key : plan.write_set) {
    aft::TxnId& slot = newest[key];
    if (slot < *committed) {
      slot = *committed;
    }
  }
  ctx.user_bytes->fetch_add(plan.write_set.size() * ctx.plans->spec().value_bytes,
                            std::memory_order_relaxed);
  return aft::Status::Ok();
}

// Every key's newest version on `node` must be the newest acknowledged
// commit that wrote it, or the dataset version when no commit did.
void CheckNewestVersions(aft::AftNode& node, const aft::WorkloadSpec& spec,
                         const std::vector<aft::TxnId>& dataset_versions,
                         const NewestCommits& newest, const char* workload, Report& report) {
  std::unordered_map<std::string, aft::TxnId> expected;
  for (const auto& per_client : newest) {
    for (const auto& [key, id] : per_client) {
      aft::TxnId& slot = expected[key];
      if (slot < id) {
        slot = id;
      }
    }
  }
  uint64_t mismatches = 0;
  std::string first;
  constexpr uint64_t kKeysPerTxn = 64;
  for (uint64_t rank = 0; rank < spec.num_keys; rank += kKeysPerTxn) {
    aft::Result<aft::Uuid> txid = node.StartTransaction();
    if (!txid.ok()) {
      report.Check(false, std::string(workload) + " verification txn starts");
      return;
    }
    for (uint64_t r = rank; r < std::min(spec.num_keys, rank + kKeysPerTxn); ++r) {
      const std::string key = aft::KeyForRank(r);
      const auto it = expected.find(key);
      const aft::TxnId want = it != expected.end() ? it->second : dataset_versions[r];
      aft::Result<aft::AftNode::VersionedRead> read = node.GetVersioned(*txid, key);
      if (!read.ok() || read->version != want) {
        ++mismatches;
        if (first.empty()) {
          first = key + ": want " + want.ToString() + ", got " +
                  (read.ok() ? read->version.ToString() : read.status().ToString());
        }
      }
    }
    (void)node.AbortTransaction(*txid);
  }
  report.Check(mismatches == 0, std::string(workload) +
                                    ": after reopen every key's newest version is its newest "
                                    "acknowledged commit (" +
                                    std::to_string(mismatches) + " of " +
                                    std::to_string(spec.num_keys) + " keys differ" +
                                    (first.empty() ? "" : "; first " + first) + ")");
}

}  // namespace

void RunTcp(const RunOptions& options, TcpStore store, Report& report) {
  // Real time; pure sleeps, as on s3-fig3.
  aft::RealClock clock(1.0, aft::Duration::zero());
  const bool durable = store == TcpStore::kLocal;
  const Shape shape = ShapeFor(store);
  const aft::WorkloadSpec& spec = shape.spec;
  const aft::TxnPlanGenerator plans(spec);
  const std::string dir_prefix =
      options.work_dir + "/" + shape.name + "-seed" + std::to_string(options.seed) + "-";

  // ---- set-up: dataset load + deployment start, median of several ----
  // Every deployment but the last is torn down afterwards, all at once:
  // Stop() waits out the background loops' sleep, which is not set-up work.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Env>> envs;
  for (int i = 0; i < shape.setups; ++i) {
    const std::string data_dir = durable ? dir_prefix + std::to_string(i) : "";
    const auto start = std::chrono::steady_clock::now();
    auto made = SetUp(store, data_dir, clock, spec);
    setup_s.push_back(WallSecondsSince(start));
    if (!made.ok()) {
      report.Check(false, std::string(shape.name) + " set-up: " + made.status().ToString());
      if (durable) {
        std::error_code ignored;
        std::filesystem::remove_all(data_dir, ignored);
      }
      TearDownAll(envs);
      return;
    }
    envs.push_back(std::move(made).value());
  }
  std::unique_ptr<Env> env = std::move(envs.back());
  envs.pop_back();
  TearDownAll(envs);

  // The Plain baseline's dataset goes into the same engine (its keys do
  // not collide with AFT's "v/" and "c/" records); not part of set-up.
  const aft::Status plain_loaded = LoadPlainBatched(*env->engine, spec);
  if (!plain_loaded.ok()) {
    report.Check(false, "Plain dataset loads: " + plain_loaded.ToString());
    TearDown(env);
    return;
  }

  aft::net::RemoteAftClientOptions client_options;
  client_options.connections_per_endpoint = kConnections;
  auto client = std::make_unique<aft::net::RemoteAftClient>(env->cluster->ServiceEndpoints(),
                                                            client_options);
  NewestCommits newest(kClients);
  std::atomic<uint64_t> user_bytes{0};
  const AttemptContext ctx{client.get(), &plans, &newest, &user_bytes};
  const AttemptFn aft_attempt = [&ctx](size_t c, aft::Rng& rng, aft::TxnLog* log) {
    return TcpAttempt(ctx, c, rng, log);
  };
  // Plain: the same plans straight against the same engine, in-process.
  aft::FaasOptions no_faas;
  no_faas.invocation_overhead = aft::LatencyModel::Zero();
  aft::FaasPlatform faas(clock, no_faas);
  aft::PlainRequestRunner plain_runner(faas, *env->engine, clock, plans);
  const AttemptFn plain_attempt = [&](size_t, aft::Rng& rng, aft::TxnLog* log) {
    return plain_runner.RunOnce(rng, log);
  };

  // AFT gets 90% of the measured time and Plain 10%, alternating in rounds;
  // a traced run gives half of the AFT share to a traced phase at the end.
  const double aft_seconds = options.seconds * (options.trace ? 0.45 : 0.9);
  const double plain_seconds = options.seconds * 0.1;
  // Half-second AFT rounds: each still holds about a thousand transactions.
  const size_t rounds = std::max<size_t>(1, static_cast<size_t>(aft_seconds * 2));
  LoopOptions loop;
  loop.clients = kClients;
  loop.seed = options.seed;
  loop.retry_backoff = aft::Millis(1);

  // Warm-up (unmeasured): connections, caches, lazy registry children.
  loop.seconds = 0.5;
  (void)RunClosedLoop(loop, clock, aft_attempt);

  Phase aft_phase;
  Phase plain_phase;
  loop.stream = 1;
  RunAlternating(loop, clock, rounds, aft_attempt, aft_seconds, &aft_phase, plain_attempt,
                 plain_seconds, &plain_phase);

  LayerInputs layers;
  TraceWindow window;
  Phase traced;
  if (options.trace) {
    const uint64_t gossip = env->cluster->bus().stats().rounds.load();
    const uint64_t bytes = user_bytes.load();
    loop.stream = 1000;
    window.Begin();
    RunAlternating(loop, clock, rounds, aft_attempt, aft_seconds, &traced, nullptr, 0, nullptr);
    window.End(options.work_dir + "/spans-" + shape.name + ".jsonl", report);
    layers.gossip_rounds = env->cluster->bus().stats().rounds.load() - gossip;
    layers.user_bytes_written = user_bytes.load() - bytes;
  }
  if (auto* local = dynamic_cast<aft::LocalEngine*>(env->engine.get()); local != nullptr) {
    const aft::LocalEngine::FileStats files = local->file_stats();
    layers.wal_total_bytes = files.total_bytes;
    layers.wal_dead_bytes = files.dead_bytes;
  }
  const double peak_rss_mb = PeakRssMb();
  if (!aft_phase.total.first_error.empty()) {
    report.Note("first AFT failure: " + aft_phase.total.first_error);
  }

  // ---- recovery: reopen the engine (WAL replay) and bootstrap a node ----
  // First let global GC delete the commit records that the last seconds of
  // load superseded, so the node recovers a settled commit set rather than
  // one whose size depends on how far GC lagged when the load stopped.
  DrainGc(*env->engine);
  client.reset();
  env->cluster->Stop();
  env->cluster.reset();
  std::vector<double> recovery_s;
  std::unique_ptr<aft::AftNode> node;
  for (int i = 0; i < shape.recoveries; ++i) {
    node.reset();
    const auto start = std::chrono::steady_clock::now();
    if (durable) {
      env->engine.reset();
      auto reopened = OpenEngine(store, env->data_dir, clock);
      if (!reopened.ok()) {
        report.Check(false, "tcp-durable reopen: " + reopened.status().ToString());
        TearDown(env);
        return;
      }
      env->engine = std::move(reopened).value();
    }
    aft::AftNodeOptions node_options;
    node_options.service_cores = 0;
    node = std::make_unique<aft::AftNode>("recovery", *env->engine, clock, node_options);
    const aft::Status started = node->Start();
    recovery_s.push_back(WallSecondsSince(start));
    if (!started.ok()) {
      report.Check(false, std::string(shape.name) + " recovery node starts: " +
                              started.ToString());
      node.reset();
      TearDown(env);
      return;
    }
  }
  CheckNewestVersions(*node, spec, env->dataset_versions, newest, shape.name, report);
  node.reset();
  TearDown(env);

  // ---- correctness ----
  CheckAftAnomalies(report, aft_phase.total);
  if (options.trace) {
    CheckAftAnomalies(report, traced.total);
  }
  report.Check(plain_phase.total.failed == 0, "Plain baseline has no failed transactions");

  // ---- end-to-end metrics: best window, as CPU and disk feel host load ----
  report.attempted =
      aft_phase.total.attempted + traced.total.attempted + plain_phase.total.attempted;
  report.failed = aft_phase.total.failed + traced.total.failed + plain_phase.total.failed;
  AddLatencyMetrics(report, aft_phase, plain_phase, 1.0);
  report.Add("peak_rss_mb", peak_rss_mb, "MiB", 1);
  // Best of the repeats, which all recover the same state.
  report.Add("recovery_s", *std::min_element(recovery_s.begin(), recovery_s.end()), "s",
             recovery_s.size());
  report.Add("setup_s", Quantile(setup_s, 0.5), "s", setup_s.size());

  if (options.trace) {
    layers.registry = &window.registry;
    layers.spans = window.spans;
    layers.txns = traced.total.committed;
    layers.time_factor = 1.0;
    layers.untraced_p50_ms = aft_phase.BestP(0.5);
    layers.traced_p50_ms = traced.BestP(0.5);
    AddLayerMetrics(report, layers);
  }
}

}  // namespace perfbench
