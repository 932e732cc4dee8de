// Concurrency stress tests, sized to run in seconds under TSan/ASan.
//
// These tests exist to give the sanitizers (and, under Clang, the thread
// safety analysis) real interleavings to chew on: many threads hammering one
// AftNode's transaction API concurrently with GC and broadcast draining, and
// a multi-node deployment committing through the load balancer while the
// multicast bus and fault manager run rounds from other threads.
//
// Assertions are deliberately coarse — counters must balance and reads must
// return *some* committed value — because the interesting failures here are
// data races and lock-order inversions, which the sanitizers report directly.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/deployment.h"
#include "src/core/aft_node.h"
#include "src/storage/sim_dynamo.h"

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

AftNodeOptions StressNodeOptions() {
  AftNodeOptions options;
  options.service_cores = 0;  // No service throttle: threads must not sleep.
  options.enable_background_threads = false;
  return options;
}

// A small hot key set so threads genuinely contend on the same index/cache
// entries instead of sharding themselves apart.
std::string HotKey(int i) { return "hot" + std::to_string(i % 8); }

// ---- Single node -----------------------------------------------------------------

// N writer threads run read-modify-write transactions against one node while
// a GC thread sweeps local metadata and a drain thread empties the broadcast
// queue. Exercises txns_mu_, committed_mu_, broadcast_mu_, the commit-set
// cache, the key-version index, the data cache, and the read pin table from
// many threads at once.
TEST(ConcurrencyStressTest, SingleNodeHammer) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  AftNode node("stress-node", storage, clock, StressNodeOptions());
  ASSERT_TRUE(node.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 150;

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  workers.reserve(kThreads + 2);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto txid = node.StartTransaction();
        ASSERT_TRUE(txid.ok());
        // Read one hot key (atomic read path + read pins), write two.
        auto read = node.Get(*txid, HotKey(i));
        if (!read.ok()) {
          // kNoValidVersion forces a retry in real apps; here just abort.
          ASSERT_TRUE(node.AbortTransaction(*txid).ok());
          aborted.fetch_add(1);
          continue;
        }
        ASSERT_TRUE(node.Put(*txid, HotKey(i), "v" + std::to_string(t)).ok());
        ASSERT_TRUE(node.Put(*txid, HotKey(i + 1), "w" + std::to_string(i)).ok());
        auto commit = node.CommitTransaction(*txid);
        ASSERT_TRUE(commit.ok());
        committed.fetch_add(1);
      }
    });
  }
  // GC thread: local metadata sweeps racing the committers.
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      node.RunLocalGcOnce();
      std::this_thread::yield();
    }
  });
  // Drain thread: the multicast hook racing the commit epilogue.
  workers.emplace_back([&] {
    std::vector<CommitRecordPtr> pruned;
    std::vector<CommitRecordPtr> unpruned;
    while (!stop.load(std::memory_order_acquire)) {
      pruned.clear();
      unpruned.clear();
      node.DrainRecentCommits(&pruned, &unpruned);
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < kThreads; ++t) {
    workers[t].join();
  }
  stop.store(true, std::memory_order_release);
  workers[kThreads].join();
  workers[kThreads + 1].join();

  EXPECT_EQ(committed.load() + aborted.load(),
            static_cast<uint64_t>(kThreads) * kTxnsPerThread);
  EXPECT_EQ(node.stats().txns_committed.load(), committed.load());
  EXPECT_EQ(node.RunningTransactionCount(), 0u);

  // Every hot key was committed at least once; each must now read back as a
  // committed value, never a torn or vanished one.
  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  for (int k = 0; k < 8; ++k) {
    auto value = node.Get(*txid, HotKey(k));
    ASSERT_TRUE(value.ok());
    ASSERT_TRUE(value->has_value());
    EXPECT_FALSE((*value)->empty());
  }
  ASSERT_TRUE(node.AbortTransaction(*txid).ok());
}

// Readers walk one hot key through more than a page of candidates while
// commits keep adding versions and local GC removes them. Every commit writes
// the same tag to `hot` and `pair`; a reader reads `pair`, waits for more
// than a page of newer commits, then reads `hot`. Each of those newer `hot`
// versions cowrote a newer `pair`, so Algorithm 1 rejects them all and must
// page down to the version the reader saw for `pair`: the read returns that
// same tag, or aborts if the version was collected first (§5.2.1).
TEST(ConcurrencyStressTest, PagedReadWalkRacesGcAndCommits) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());
  AftNode node("stress-node", storage, clock, StressNodeOptions());
  ASSERT_TRUE(node.Start().ok());

  auto commit_pair = [&](const std::string& tag) {
    auto txid = node.StartTransaction();
    EXPECT_TRUE(txid.ok());
    EXPECT_TRUE(node.Put(*txid, "hot", tag).ok());
    EXPECT_TRUE(node.Put(*txid, "pair", tag).ok());
    return node.CommitTransaction(*txid).ok();
  };
  ASSERT_TRUE(commit_pair("seed"));

  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 40;
  // Commits a reader waits for: more than one page of rejected candidates.
  constexpr uint64_t kNewer = 2 * KeyVersionIndex::kCandidatePage + 1;

  std::atomic<uint64_t> commits{0};
  std::atomic<int> readers_left{kReaders};
  std::atomic<uint64_t> matched{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; readers_left.load() > 0; ++i) {
        if (commit_pair("w" + std::to_string(w) + "-" + std::to_string(i))) {
          commits.fetch_add(1);
        }
      }
    });
  }
  // One read-only transaction; a read may abort under this much churn (its
  // selection never settles, or its version was collected first).
  auto read_pair_then_hot = [&] {
    auto txid = node.StartTransaction();
    ASSERT_TRUE(txid.ok());
    auto pair = node.Get(*txid, "pair");
    if (pair.ok()) {
      ASSERT_TRUE(pair->has_value());
      const uint64_t seen = commits.load();
      while (commits.load() < seen + kNewer) {
        std::this_thread::yield();
      }
      auto hot = node.Get(*txid, "hot");
      if (hot.ok()) {
        ASSERT_TRUE(hot->has_value());
        EXPECT_EQ(**hot, **pair) << "fractured read across a paged walk";
        matched.fetch_add(1);
      } else {
        EXPECT_TRUE(hot.status().IsAborted()) << hot.status().ToString();
        aborted.fetch_add(1);
      }
    } else {
      EXPECT_TRUE(pair.status().IsAborted()) << pair.status().ToString();
      aborted.fetch_add(1);
    }
    ASSERT_TRUE(node.AbortTransaction(*txid).ok());
  };
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        read_pair_then_hot();
      }
      readers_left.fetch_sub(1);  // Even after a failed assertion: writers stop.
    });
  }
  // Local GC racing the walks, and the drain that makes records collectable.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      node.DrainRecentCommits(nullptr, nullptr);
      node.RunLocalGcOnce();
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < kWriters + kReaders; ++t) {
    threads[t].join();
  }
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(matched.load() + aborted.load(), static_cast<uint64_t>(kReaders) * kReadsPerReader);
  EXPECT_GT(matched.load(), 0u);
  EXPECT_EQ(node.RunningTransactionCount(), 0u);
  // Once the readers are gone, one sweep leaves only the newest version.
  node.DrainRecentCommits(nullptr, nullptr);
  node.RunLocalGcOnce();
  EXPECT_EQ(node.KeyVersionCount(), 2u);
}

// ---- Multi-node ------------------------------------------------------------------

// Committers spread across a 3-node cluster through the load balancer while
// one thread runs multicast rounds (supersedence pruning + ApplyRemoteCommits
// on peers) and another runs the fault manager's liveness / global-GC /
// orphan sweeps. Exercises the bus, balancer, fault-manager and deployment
// locks against the per-node locks.
TEST(ConcurrencyStressTest, MultiNodeMulticastAndSupersedence) {
  SimClock clock;
  SimDynamo storage(clock, InstantDynamo());

  ClusterOptions options;
  options.num_nodes = 3;
  options.node_options = StressNodeOptions();
  options.start_background_threads = false;  // Rounds driven by our threads.
  ClusterDeployment cluster(storage, clock, options);
  ASSERT_TRUE(cluster.Start().ok());

  constexpr int kThreads = 6;
  constexpr int kTxnsPerThread = 100;

  std::atomic<uint64_t> committed{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  workers.reserve(kThreads + 2);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        AftNode* node = cluster.balancer().Pick();
        ASSERT_NE(node, nullptr);
        auto txid = node->StartTransaction();
        ASSERT_TRUE(txid.ok());
        ASSERT_TRUE(node->Put(*txid, HotKey(i), "n" + std::to_string(t)).ok());
        auto commit = node->CommitTransaction(*txid);
        ASSERT_TRUE(commit.ok());
        committed.fetch_add(1);
      }
    });
  }
  // Multicast rounds racing the committers: drains each node and applies the
  // pruned records to its peers.
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      cluster.bus().RunOnce();
      std::this_thread::yield();
    }
  });
  // Fault-manager rounds: liveness scan, global GC, orphan sweep.
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      cluster.fault_manager().RunLivenessScanOnce();
      cluster.fault_manager().RunGlobalGcOnce();
      cluster.fault_manager().RunOrphanSweepOnce();
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < kThreads; ++t) {
    workers[t].join();
  }
  stop.store(true, std::memory_order_release);
  workers[kThreads].join();
  workers[kThreads + 1].join();

  EXPECT_EQ(committed.load(), static_cast<uint64_t>(kThreads) * kTxnsPerThread);

  // Final multicast round, then every node must serve every hot key with a
  // committed (non-torn) value.
  cluster.bus().RunOnce();
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    AftNode* node = cluster.node(n);
    ASSERT_NE(node, nullptr);
    auto txid = node->StartTransaction();
    ASSERT_TRUE(txid.ok());
    for (int k = 0; k < 8; ++k) {
      auto value = node->Get(*txid, HotKey(k));
      ASSERT_TRUE(value.ok());
      ASSERT_TRUE(value->has_value());
      EXPECT_EQ((*value)->front(), 'n');
    }
    ASSERT_TRUE(node->AbortTransaction(*txid).ok());
  }
  cluster.Stop();
}

}  // namespace
}  // namespace aft
