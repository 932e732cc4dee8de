// Fault-tolerance property tests: crash injection at every point of the
// commit protocol, recovery invariants, orphan collection, and end-to-end
// exactly-once behaviour under randomized failures.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <tuple>

#include "src/cluster/deployment.h"
#include "src/storage/sim_dynamo.h"
#include "src/workload/dataset.h"
#include "src/workload/harness.h"
#include "tests/crash_engine.h"

namespace aft {
namespace {

SimDynamoOptions InstantDynamo() {
  SimDynamoOptions options;
  options.profile = EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero()};
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

// Ground truth from storage: did `txid`'s commit record make it out?
bool CommitRecordPersisted(StorageEngine& storage, const Uuid& txid) {
  auto commit_keys = storage.List(kCommitPrefix);
  EXPECT_TRUE(commit_keys.ok());
  for (const auto& key : commit_keys.value()) {
    if (TxnIdFromCommitStorageKey(key).uuid == txid) {
      return true;
    }
  }
  return false;
}

// Randomized crash-point property: for every transaction, either ALL of its
// writes are visible after recovery or NONE are, and acked commits are
// always visible. The crash lands at the storage boundary of the default
// commit path (tests/crash_engine.h). Parameterized over RNG seeds and the
// data layout.
class CrashRecoveryPropertyTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CrashRecoveryPropertyTest, AckedAllOrNothingAlwaysHolds) {
  const auto [seed, packed_layout] = GetParam();
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  CrashEngine crashy_storage(storage);
  Rng rng(9000 + seed);

  struct Outcome {
    std::string key_a;
    std::string key_b;
    std::string value;
    bool acked = false;
    bool commit_record_persisted = false;
  };
  std::vector<Outcome> outcomes;

  for (int i = 0; i < 40; ++i) {
    // Each iteration: a fresh node (previous one may have crashed) running
    // one 2-key transaction with a randomly armed crash point.
    const int crash_roll = static_cast<int>(rng.Below(4));  // 3 points + no crash.
    AftNodeOptions options;
    options.service_cores = 0;
    options.packed_layout = packed_layout;
    AftNode node("n" + std::to_string(i), crashy_storage, clock, options);
    ASSERT_TRUE(node.Start().ok());
    if (crash_roll < 3) {
      crashy_storage.Arm(static_cast<CrashEngine::At>(crash_roll), [&node] { node.Kill(); });
    } else {
      crashy_storage.Disarm();
    }

    Outcome outcome;
    outcome.key_a = "a" + std::to_string(i);
    outcome.key_b = "b" + std::to_string(i);
    outcome.value = "v" + std::to_string(i);
    auto txid = node.StartTransaction();
    ASSERT_TRUE(txid.ok());
    ASSERT_TRUE(node.Put(*txid, outcome.key_a, outcome.value).ok());
    ASSERT_TRUE(node.Put(*txid, outcome.key_b, outcome.value).ok());
    auto committed = node.CommitTransaction(*txid);
    outcome.acked = committed.ok();
    outcome.commit_record_persisted = CommitRecordPersisted(storage, *txid);
    outcomes.push_back(outcome);
  }

  // Recovery: a brand-new node bootstraps purely from storage.
  AftNodeOptions recovery_options;
  recovery_options.service_cores = 0;
  AftNode recovered("recovery", storage, clock, recovery_options);
  ASSERT_TRUE(recovered.Start().ok());

  for (const Outcome& outcome : outcomes) {
    auto txid = recovered.StartTransaction();
    ASSERT_TRUE(txid.ok());
    auto a = recovered.Get(*txid, outcome.key_a);
    auto b = recovered.Get(*txid, outcome.key_b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    (void)recovered.AbortTransaction(*txid);

    const bool a_visible = a->has_value();
    const bool b_visible = b->has_value();
    EXPECT_EQ(a_visible, b_visible) << "fractional execution exposed for " << outcome.key_a;
    if (outcome.acked) {
      EXPECT_TRUE(a_visible) << "acked commit lost: " << outcome.key_a;
      EXPECT_EQ(a->value(), outcome.value);
    }
    // Commit record persisted == transaction committed, acked or not (§3.3.1).
    EXPECT_EQ(a_visible, outcome.commit_record_persisted);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryPropertyTest,
                         ::testing::Combine(::testing::Range(0, 6), ::testing::Bool()));

// The crash lands mid-round on the fused path: eight committers share
// storage rounds and the node dies partway through one. The engine's pool
// of one request lets one round run at a time. The first committer runs
// round 1 alone and is held at the storage boundary until the other seven
// have queued behind it, so they fuse into round 2 — 7 x 2 version writes,
// then 7 commit records — and the seeded kill lands inside it.
// After recovery an acked commit is visible, and a commit is visible
// exactly when its record was persisted, acked or not.
class MidRoundCrashTest : public ::testing::TestWithParam<int> {};

TEST_P(MidRoundCrashTest, AckedVisibleAndVisibleIffRecordPersisted) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  storage.SetMaxConcurrentRequests(1);
  CrashEngine crashy_storage(storage);
  AftNodeOptions options;
  options.service_cores = 0;
  const std::string node_id = "mid-round-" + std::to_string(GetParam());
  AftNode node(node_id, crashy_storage, clock, options);
  ASSERT_TRUE(node.Start().ok());

  Rng rng(7000 + GetParam());
  const auto at = static_cast<CrashEngine::At>(rng.Below(3));
  // Round 1 writes 2 versions and 1 record; skip past them into round 2.
  const int skip = at == CrashEngine::At::kVersionWrite ? 2 + static_cast<int>(rng.Below(14))
                                                        : 1 + static_cast<int>(rng.Below(7));
  crashy_storage.Arm(at, [&node] { node.Kill(); }, skip);

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool leader_held = false;
  crashy_storage.SetWriteHook([&](const std::string&) {
    std::unique_lock<std::mutex> lock(gate_mu);
    leader_held = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  });

  constexpr int kCommitters = 8;
  struct Outcome {
    Uuid txid;
    bool acked = false;
  };
  std::vector<Outcome> outcomes(kCommitters);
  std::atomic<int> committing{0};
  auto committer = [&](int i) {
    auto txid = node.StartTransaction();
    ASSERT_TRUE(txid.ok());
    outcomes[i].txid = *txid;
    ASSERT_TRUE(node.Put(*txid, "a" + std::to_string(i), "v" + std::to_string(i)).ok());
    ASSERT_TRUE(node.Put(*txid, "b" + std::to_string(i), "v" + std::to_string(i)).ok());
    committing.fetch_add(1);
    outcomes[i].acked = node.CommitTransaction(*txid).ok();
  };

  const auto rounds_before = obs::MetricsRegistry::Global().GetCounter(
      "aft_commit_batch_rounds_total", "Batched commit rounds executed", {{"node", node_id}});
  const uint64_t rounds_at_start = rounds_before->Value();
  std::vector<std::thread> threads;
  threads.emplace_back(committer, 0);
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return leader_held; });
  }
  for (int i = 1; i < kCommitters; ++i) {
    threads.emplace_back(committer, i);
  }
  while (committing.load() < kCommitters) {
    std::this_thread::yield();
  }
  // The last committers are microseconds from the queue; give them ample
  // time to join it before round 1 completes.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_TRUE(crashy_storage.crashed());
  EXPECT_FALSE(node.alive());
  EXPECT_LT(rounds_before->Value() - rounds_at_start, static_cast<uint64_t>(kCommitters))
      << "committers never shared a round";

  AftNodeOptions recovery_options;
  recovery_options.service_cores = 0;
  AftNode recovered("recovery-" + node_id, storage, clock, recovery_options);
  ASSERT_TRUE(recovered.Start().ok());
  for (int i = 0; i < kCommitters; ++i) {
    const bool persisted = CommitRecordPersisted(storage, outcomes[i].txid);
    auto txid = recovered.StartTransaction();
    ASSERT_TRUE(txid.ok());
    auto a = recovered.Get(*txid, "a" + std::to_string(i));
    auto b = recovered.Get(*txid, "b" + std::to_string(i));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    (void)recovered.AbortTransaction(*txid);
    EXPECT_EQ(a->has_value(), b->has_value()) << "fractional execution exposed for " << i;
    if (outcomes[i].acked) {
      EXPECT_TRUE(a->has_value()) << "acked commit lost: " << i;
    }
    EXPECT_EQ(a->has_value(), persisted) << "committer " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MidRoundCrashTest, ::testing::Range(0, 6));

// ---- Orphan collection ------------------------------------------------------------

TEST(OrphanSweepTest, OrphanedVersionsAreReapedAfterGrace) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  ClusterOptions options;
  options.num_nodes = 1;
  options.start_background_threads = false;
  options.fault_manager.orphan_grace = Millis(500);
  CrashEngine crashy_storage(storage);
  ClusterDeployment cluster(crashy_storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());
  // The dying node: crashes after writing data, before the commit record.
  crashy_storage.Arm(CrashEngine::At::kRecordWrite, [&cluster] { cluster.node(0)->Kill(); });

  auto txid = cluster.node(0)->StartTransaction();
  ASSERT_TRUE(cluster.node(0)->Put(*txid, "torn", "x").ok());
  EXPECT_TRUE(cluster.node(0)->CommitTransaction(*txid).status().IsUnavailable());
  ASSERT_EQ(storage.List(kVersionPrefix)->size(), 1u);

  // First sweep: candidate noted, nothing deleted (grace not elapsed).
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 0u);
  clock.Advance(Millis(1000));
  // After the grace period the orphan is reaped.
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 1u);
  EXPECT_TRUE(storage.List(kVersionPrefix)->empty());
  EXPECT_EQ(cluster.fault_manager().stats().orphans_deleted.load(), 1u);
}

TEST(OrphanSweepTest, CommittedVersionsAreNeverReaped) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  ClusterOptions options;
  options.num_nodes = 1;
  options.start_background_threads = false;
  options.fault_manager.orphan_grace = Millis(1);
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());

  auto txid = cluster.node(0)->StartTransaction();
  ASSERT_TRUE(cluster.node(0)->Put(*txid, "safe", "x").ok());
  ASSERT_TRUE(cluster.node(0)->CommitTransaction(*txid).ok());
  cluster.bus().RunOnce();  // Fault manager learns the commit.
  clock.Advance(Millis(100));
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 0u);
  EXPECT_EQ(storage.List(kVersionPrefix)->size(), 1u);
}

TEST(OrphanSweepTest, UncommittedButRecentVersionsSurviveViaGrace) {
  // A slow transaction's spilled buffer must not be reaped mid-flight.
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  ClusterOptions options;
  options.num_nodes = 1;
  options.start_background_threads = false;
  options.fault_manager.orphan_grace = Millis(10000);
  options.node_options.spill_threshold_bytes = 8;
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());

  auto txid = cluster.node(0)->StartTransaction();
  ASSERT_TRUE(cluster.node(0)->Put(*txid, "slow", "spilled-payload").ok());
  ASSERT_EQ(storage.List(kVersionPrefix)->size(), 1u);  // Spilled pre-commit.
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 0u);
  clock.Advance(Millis(100));
  EXPECT_EQ(cluster.fault_manager().RunOrphanSweepOnce(), 0u);
  // The transaction eventually commits; its data must still be there.
  ASSERT_TRUE(cluster.node(0)->CommitTransaction(*txid).ok());
  auto reader = cluster.node(0)->StartTransaction();
  EXPECT_EQ(cluster.node(0)->Get(*reader, "slow")->value(), "spilled-payload");
}

// ---- End-to-end exactly-once under randomized failures -----------------------------

class CrashyFaasStressTest : public ::testing::TestWithParam<bool> {};

TEST_P(CrashyFaasStressTest, StillYieldsZeroAnomalies) {
  const bool packed_layout = GetParam();
  RealClock clock(0.002);  // 500x real time; everything below is zero-latency.
  SimDynamo storage(clock, InstantDynamo());
  WorkloadSpec spec;
  spec.num_keys = 40;
  spec.zipf_theta = 1.2;
  spec.value_bytes = 64;
  (void)LoadAftDataset(storage, spec);

  ClusterOptions cluster_options;
  cluster_options.num_nodes = 3;
  cluster_options.multicast_interval = Millis(50);
  cluster_options.start_background_threads = true;
  cluster_options.node_options.service_cores = 0;
  cluster_options.node_options.enable_background_threads = true;
  cluster_options.node_options.local_gc_interval = Millis(50);
  cluster_options.node_options.packed_layout = packed_layout;
  cluster_options.fault_manager.gc_interval = Millis(50);
  cluster_options.fault_manager.scan_interval = Millis(100);
  ClusterDeployment cluster(storage, clock, cluster_options);
  ASSERT_TRUE(cluster.Start().ok());

  FaasOptions faas_options;
  faas_options.invocation_overhead = LatencyModel(1.0, 0.1, 0.5);
  faas_options.crash_probability = 0.1;
  faas_options.max_retries = 20;
  faas_options.retry_backoff = Millis(1);
  FaasPlatform faas(clock, faas_options);
  AftClientOptions client_options;
  client_options.network_hop = LatencyModel(0.2, 0.1, 0.1);
  AftClient client(cluster.balancer(), clock, client_options);
  TxnPlanGenerator plans(spec);
  AftRequestRunner runner(faas, client, clock, plans);

  HarnessOptions harness;
  harness.num_clients = 6;
  harness.requests_per_client = 40;
  const HarnessResult result = RunClients(clock, runner, harness);
  cluster.Stop();

  EXPECT_EQ(result.completed, 240u);
  EXPECT_EQ(result.ryw_anomalies, 0u);
  EXPECT_EQ(result.fr_anomalies, 0u);
  EXPECT_GT(faas.stats().crashes_injected.load(), 0u);
  // Gossip + GC actually ran.
  EXPECT_GT(cluster.bus().stats().rounds.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, CrashyFaasStressTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "PackedLayout" : "KeyPerVersion";
                         });

// Flaky STORAGE: every engine op can fail transiently (throttling / 500s).
// The retry stack — storage-read retries in the node, FaaS function retries,
// whole-request retries in the runner — must absorb them with zero anomalies.
TEST(ExactlyOnceStressTest, TransientStorageFaultsAreAbsorbed) {
  RealClock clock(0.002);
  SimDynamo storage(clock, InstantDynamo());
  WorkloadSpec spec;
  spec.num_keys = 40;
  spec.zipf_theta = 1.0;
  spec.value_bytes = 64;
  (void)LoadAftDataset(storage, spec);
  storage.InjectTransientFaults(0.05);  // 5% of ALL storage ops fail.

  ClusterOptions cluster_options;
  cluster_options.num_nodes = 2;
  cluster_options.multicast_interval = Millis(50);
  cluster_options.start_background_threads = true;
  cluster_options.node_options.service_cores = 0;
  ClusterDeployment cluster(storage, clock, cluster_options);
  ASSERT_TRUE(cluster.Start().ok());

  FaasOptions faas_options;
  faas_options.invocation_overhead = LatencyModel(1.0, 0.1, 0.5);
  faas_options.max_retries = 20;
  faas_options.retry_backoff = Millis(1);
  FaasPlatform faas(clock, faas_options);
  AftClientOptions client_options;
  client_options.network_hop = LatencyModel(0.2, 0.1, 0.1);
  AftClient client(cluster.balancer(), clock, client_options);
  TxnPlanGenerator plans(spec);
  RunnerRetryPolicy retry;
  retry.max_request_retries = 64;
  retry.retry_backoff = Millis(1);
  AftRequestRunner runner(faas, client, clock, plans, retry);

  HarnessOptions harness;
  harness.num_clients = 4;
  harness.requests_per_client = 40;
  const HarnessResult result = RunClients(clock, runner, harness);
  cluster.Stop();

  EXPECT_EQ(result.completed, 160u);
  EXPECT_EQ(result.ryw_anomalies, 0u);
  EXPECT_EQ(result.fr_anomalies, 0u);
  EXPECT_GT(storage.counters().transient_faults.load(), 0u);
}

// Kill a node DURING a multi-client run: every request still completes (via
// failover) and no anomaly ever surfaces.
TEST(ExactlyOnceStressTest, NodeDeathMidRunIsInvisibleToCorrectness) {
  RealClock clock(0.002);
  SimDynamo storage(clock, InstantDynamo());
  WorkloadSpec spec;
  spec.num_keys = 40;
  spec.zipf_theta = 1.0;
  spec.value_bytes = 64;
  (void)LoadAftDataset(storage, spec);

  ClusterOptions cluster_options;
  cluster_options.num_nodes = 3;
  cluster_options.multicast_interval = Millis(50);
  cluster_options.start_background_threads = true;
  cluster_options.node_options.service_cores = 0;
  cluster_options.fault_manager.enable_node_replacement = false;
  ClusterDeployment cluster(storage, clock, cluster_options);
  ASSERT_TRUE(cluster.Start().ok());

  FaasOptions faas_options;
  faas_options.invocation_overhead = LatencyModel(1.0, 0.1, 0.5);
  FaasPlatform faas(clock, faas_options);
  AftClientOptions client_options;
  client_options.network_hop = LatencyModel(0.2, 0.1, 0.1);
  AftClient client(cluster.balancer(), clock, client_options);
  TxnPlanGenerator plans(spec);
  AftRequestRunner runner(faas, client, clock, plans);

  std::thread assassin([&] {
    clock.SleepFor(Millis(300));
    cluster.KillNode(0);
  });
  HarnessOptions harness;
  harness.num_clients = 6;
  harness.requests_per_client = 50;
  const HarnessResult result = RunClients(clock, runner, harness);
  assassin.join();
  cluster.Stop();

  EXPECT_EQ(result.completed + result.failed, 300u);
  EXPECT_EQ(result.failed, 0u) << "whole-request retries must absorb the node death";
  EXPECT_EQ(result.ryw_anomalies, 0u);
  EXPECT_EQ(result.fr_anomalies, 0u);
}

}  // namespace
}  // namespace aft
