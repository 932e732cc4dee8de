// Latency attribution (aft_commit_stage_seconds) and the sampled contention
// profiler (src/common/contention.h).
//
// The load-bearing guarantees under test:
//   * Reconciliation — the per-stage commit decomposition is a set of
//     DISJOINT, nested slices of the end-to-end commit, so across any run
//     the stage sums total at most the aft_node_commit_latency_ms sum.
//     Holds on the solo fast path AND under batched concurrency (a bounded
//     request pool), on both the simulated-cloud engine and the durable
//     LocalEngine.
//   * Coverage — every committed transaction observes every per-commit
//     stage exactly once, with exactly one queue_wait_{leader,follower}
//     by batch role (over an unbounded engine nothing queues: every commit
//     leads its own round and waits zero).
//   * Exactness — a thread that demonstrably blocked ~N ms on a named,
//     fully-sampled Mutex shows ≥ ~N ms of wait at its site; with sampling
//     off the same contention records nothing.
//   * Queue profiling — a named IoExecutor attributes queue wait and run
//     time to its "<name>.queue" / "<name>.run" sites.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/contention.h"
#include "src/common/histogram.h"
#include "src/common/io_executor.h"
#include "src/common/mutex.h"
#include "src/core/aft_node.h"
#include "src/core/commit_batcher.h"
#include "src/obs/metrics.h"
#include "src/storage/local_engine.h"
#include "src/storage/sim_dynamo.h"
#include "tests/pool_view_engine.h"

namespace aft {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/aft_attr_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    path_ = dir == nullptr ? "" : dir;
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Zero-latency engine profile: attribution math, not simulated round trips.
SimDynamoOptions InstantDynamoOptions() {
  SimDynamoOptions options;
  options.profile = EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero()};
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

// A 100 µs write (50 simulated ms at the tests' 0.002 scale) keeps rounds in
// flight long enough that committers pile up behind a bounded pool.
SimDynamoOptions SlowWriteDynamoOptions() {
  SimDynamoOptions options = InstantDynamoOptions();
  options.profile.put = LatencyModel(50, 0);
  options.profile.batch_base = LatencyModel(50, 0);
  return options;
}

AftNodeOptions FastNodeOptions() {
  AftNodeOptions options;
  options.service_cores = 0;
  return options;
}

// Restores the global contention sampling rate (tests share a process).
class ScopedSampleRate {
 public:
  explicit ScopedSampleRate(uint32_t every_n) : saved_(contention::SampleEveryN()) {
    contention::SetSampleEveryN(every_n);
  }
  ~ScopedSampleRate() { contention::SetSampleEveryN(saved_); }

 private:
  uint32_t saved_;
};

contention::SiteSnapshot FindSite(const std::string& name) {
  for (const auto& site : contention::ContentionRegistry::Global().Snapshot()) {
    if (site.name == name) {
      return site;
    }
  }
  return contention::SiteSnapshot{};
}

// Drives `txns` single-key commits through `node` across `threads` threads
// and returns how many committed.
uint64_t RunCommits(AftNode& node, int threads, int txns_per_thread) {
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&node, &committed, t, txns_per_thread] {
      for (int i = 0; i < txns_per_thread; ++i) {
        auto txid = node.StartTransaction();
        if (!txid.ok()) {
          continue;
        }
        const std::string tag = std::to_string(t) + "-" + std::to_string(i);
        if (!node.Put(*txid, "k" + std::to_string(i % 4), "v" + tag).ok()) {
          continue;
        }
        if (node.CommitTransaction(*txid).ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  return committed.load();
}

// The reconciliation contract (docs/OBSERVABILITY.md "Latency attribution"):
// per-commit stages are disjoint slices of the commit_latency_ms window, so
// their sums cannot exceed the end-to-end sum. 5% + 2ms of slack absorbs
// float accumulation and the ms→s unit hop, NOT any structural overlap.
// The counts and sums CheckReconciliation reads. They live in the
// process-global registry, keyed by node id, so a repeated test
// (--gtest_repeat) keeps adding to the same series: the checks compare the
// change since a snapshot taken at the test's start.
struct AttributionSnapshot {
  struct Cell {
    uint64_t count = 0;
    double sum = 0;
  };
  Cell e2e;
  Cell txn_lock_wait;
  Cell queue_wait_leader;
  Cell queue_wait_follower;
  Cell data_flush;
  Cell barrier;
  Cell record_write;
  Cell gossip_publish;
  uint64_t followers = 0;

  static AttributionSnapshot Take(const std::string& node_id) {
    auto& reg = obs::MetricsRegistry::Global();
    const CommitStageHistograms stages = CommitStageHistograms::ForNode(node_id);
    auto cell = [](obs::Histogram* h) { return Cell{h->Count(), h->Sum()}; };
    AttributionSnapshot s;
    s.e2e = cell(reg.GetHistogram("aft_node_commit_latency_ms",
                                  "CommitTransaction wall latency (ms)",
                                  DefaultLatencyBoundariesMs(), {{"node", node_id}}));
    s.txn_lock_wait = cell(stages.txn_lock_wait);
    s.queue_wait_leader = cell(stages.queue_wait_leader);
    s.queue_wait_follower = cell(stages.queue_wait_follower);
    s.data_flush = cell(stages.data_flush);
    s.barrier = cell(stages.barrier);
    s.record_write = cell(stages.record_write);
    s.gossip_publish = cell(stages.gossip_publish);
    s.followers = reg.GetCounter("aft_commit_batch_commits_total",
                                 "Commits by batch role (follower piggybacked)",
                                 {{"node", node_id}, {"role", "follower"}})
                      ->Value();
    return s;
  }

  AttributionSnapshot operator-(const AttributionSnapshot& before) const {
    auto minus = [](const Cell& a, const Cell& b) { return Cell{a.count - b.count, a.sum - b.sum}; };
    AttributionSnapshot d;
    d.e2e = minus(e2e, before.e2e);
    d.txn_lock_wait = minus(txn_lock_wait, before.txn_lock_wait);
    d.queue_wait_leader = minus(queue_wait_leader, before.queue_wait_leader);
    d.queue_wait_follower = minus(queue_wait_follower, before.queue_wait_follower);
    d.data_flush = minus(data_flush, before.data_flush);
    d.barrier = minus(barrier, before.barrier);
    d.record_write = minus(record_write, before.record_write);
    d.gossip_publish = minus(gossip_publish, before.gossip_publish);
    d.followers = followers - before.followers;
    return d;
  }
};

void CheckReconciliation(const std::string& node_id, const AttributionSnapshot& before,
                         uint64_t committed, bool bounded_pool) {
  const AttributionSnapshot d = AttributionSnapshot::Take(node_id) - before;
  ASSERT_EQ(d.e2e.count, committed);

  // Coverage: one observation per committed transaction per per-commit stage.
  EXPECT_EQ(d.txn_lock_wait.count, committed);
  EXPECT_EQ(d.data_flush.count, committed);
  EXPECT_EQ(d.barrier.count, committed);
  EXPECT_EQ(d.record_write.count, committed);
  EXPECT_EQ(d.gossip_publish.count, committed);
  EXPECT_EQ(d.queue_wait_leader.count + d.queue_wait_follower.count, committed);
  if (bounded_pool) {
    EXPECT_GE(d.queue_wait_leader.count, 1u);
    EXPECT_GT(d.followers, 0u) << "no committer fused into another's round";
    EXPECT_EQ(d.queue_wait_follower.count, d.followers);
  } else {
    // Over an unbounded engine nobody joins a queue: each leads its own
    // round.
    EXPECT_EQ(d.queue_wait_leader.count, committed);
    EXPECT_EQ(d.queue_wait_leader.sum, 0.0);
  }

  const double stage_sum_s = d.txn_lock_wait.sum + d.queue_wait_leader.sum +
                             d.queue_wait_follower.sum + d.data_flush.sum + d.barrier.sum +
                             d.record_write.sum + d.gossip_publish.sum;
  const double e2e_sum_s = d.e2e.sum * 1e-3;
  EXPECT_GT(stage_sum_s, 0.0);
  EXPECT_LE(stage_sum_s, e2e_sum_s * 1.05 + 2e-3)
      << "stage sum " << stage_sum_s << "s vs e2e " << e2e_sum_s << "s";
}

TEST(LatencyAttribution, ReconcilesSoloSimEngine) {
  RealClock clock(0.002);
  SimDynamo engine(clock, InstantDynamoOptions());
  const AttributionSnapshot before = AttributionSnapshot::Take("attr-sim-solo");
  AftNode node("attr-sim-solo", engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/1, /*txns_per_thread=*/25);
  node.Kill();
  ASSERT_GT(committed, 0u);
  CheckReconciliation("attr-sim-solo", before, committed, /*bounded_pool=*/false);
}

TEST(LatencyAttribution, ReconcilesBatchedSimEngine) {
  RealClock clock(0.002);
  SimDynamo engine(clock, SlowWriteDynamoOptions());
  engine.SetMaxConcurrentRequests(2);
  const AttributionSnapshot before = AttributionSnapshot::Take("attr-sim-batched");
  AftNode node("attr-sim-batched", engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/8, /*txns_per_thread=*/25);
  node.Kill();
  ASSERT_GT(committed, 0u);
  CheckReconciliation("attr-sim-batched", before, committed, /*bounded_pool=*/true);
}

TEST(LatencyAttribution, ReconcilesUnboundedSimEngine) {
  RealClock clock(0.002);
  SimDynamo engine(clock, SlowWriteDynamoOptions());
  const AttributionSnapshot before = AttributionSnapshot::Take("attr-sim-unbounded");
  AftNode node("attr-sim-unbounded", engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/4, /*txns_per_thread=*/25);
  node.Kill();
  ASSERT_GT(committed, 0u);
  CheckReconciliation("attr-sim-unbounded", before, committed, /*bounded_pool=*/false);
}

TEST(LatencyAttribution, ReconcilesBatchedLocalEngine) {
  TempDir dir;
  RealClock clock(0.002);
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  // The WAL engine runs one round at a time, so concurrent committers fuse
  // into shared WAL rounds.
  const AttributionSnapshot before = AttributionSnapshot::Take("attr-local-batched");
  AftNode node("attr-local-batched", **engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/8, /*txns_per_thread=*/15);
  node.Kill();
  ASSERT_GT(committed, 0u);
  CheckReconciliation("attr-local-batched", before, committed, /*bounded_pool=*/true);
}

TEST(LatencyAttribution, ReconcilesUnboundedLocalEngine) {
  TempDir dir;
  RealClock clock(0.002);
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  PoolViewEngine unbounded(**engine, 0);
  const AttributionSnapshot before = AttributionSnapshot::Take("attr-local-unbounded");
  AftNode node("attr-local-unbounded", unbounded, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  const uint64_t committed = RunCommits(node, /*threads=*/4, /*txns_per_thread=*/15);
  node.Kill();
  ASSERT_GT(committed, 0u);
  CheckReconciliation("attr-local-unbounded", before, committed, /*bounded_pool=*/false);
}

// ---- contention profiler ----------------------------------------------------

TEST(ContentionProfiler, RecordsDemonstrableLockWait) {
  ScopedSampleRate sample(1);  // Every acquisition.
  Mutex mu("test.exact");
  std::atomic<bool> held{false};
  std::thread holder([&mu, &held] {
    MutexLock lock(mu);
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  });
  while (!held.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // This acquisition demonstrably blocks until the holder's sleep ends.
  {
    MutexLock lock(mu);
  }
  holder.join();

  const auto site = FindSite("test.exact");
  EXPECT_EQ(site.kind, contention::SiteKind::kLock);
  EXPECT_GE(site.samples, 1u);
  EXPECT_GE(site.contended, 1u);
  // 40ms of provable blocking, measured within scheduling slop.
  EXPECT_GE(site.total_wait_ns, 25ull * 1000 * 1000);
  EXPECT_GE(site.max_wait_ns, 25ull * 1000 * 1000);
  EXPECT_GE(site.ApproxQuantileNs(0.99), site.ApproxQuantileNs(0.5));
}

TEST(ContentionProfiler, UnsampledRecordsNothing) {
  ScopedSampleRate sample(0);  // Profiler off.
  Mutex mu("test.unsampled");
  std::atomic<bool> held{false};
  std::thread holder([&mu, &held] {
    MutexLock lock(mu);
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  while (!held.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  {
    MutexLock lock(mu);  // Contended — but sampling is off.
  }
  holder.join();

  // The site exists (named construction registers it) but saw no samples.
  const auto site = FindSite("test.unsampled");
  EXPECT_EQ(site.samples, 0u);
  EXPECT_EQ(site.contended, 0u);
  EXPECT_EQ(site.total_wait_ns, 0u);
}

TEST(ContentionProfiler, NamedExecutorProfilesQueueAndRunTime) {
  ScopedSampleRate sample(1);
  {
    IoExecutor executor(2, "attrexec");
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
      executor.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No drain API: wait for the tasks themselves (the pool destructor would
    // drop queued work).
    while (ran.load(std::memory_order_acquire) < 16) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const auto queue_site = FindSite("attrexec.queue");
  const auto run_site = FindSite("attrexec.run");
  EXPECT_EQ(queue_site.kind, contention::SiteKind::kQueue);
  EXPECT_GE(queue_site.samples, 1u);
  EXPECT_GE(run_site.samples, 1u);
  // 16 tasks × ≥2ms run time on 2 threads: run-time attribution must see
  // multiple milliseconds even if the queue never backs up.
  EXPECT_GE(run_site.total_wait_ns, 4ull * 1000 * 1000);
}

}  // namespace
}  // namespace aft
