// Cross-transaction commit batching (src/core/commit_batcher.h) and the
// CommitUnits storage contract (src/storage/storage_engine.h).
//
// The load-bearing guarantees under test:
//   * Per-unit §3.3 ordering — no member's commit record is visible (even
//     after a LocalEngine reopen/replay) unless that member's data is
//     durable.
//   * Per-unit poisoning — one member's failed write aborts that member
//     alone; its commit record is never written, its batch-mates commit and
//     stay readable.
//   * Fusion — a multi-unit round on the local engine rides ONE batched API
//     call and ONE group-committed fsync.
//   * Queue policy — at most K rounds (the engine's request-pool size) run
//     at once, and a committer that finds a slot free runs at once instead
//     of queueing.
//   * Equivalence — commits fused over a bounded pool are observably
//     identical to the never-queued commits over an unbounded engine,
//     including after crash-recovery replay, and a failed round leaves the
//     transaction retryable.
//   * Packed layout — segment commits fuse like key-per-version ones, and
//     a failed packed round never leaves a locator into its segment.
// The TSan stress at the bottom drives concurrent committers through the
// batcher under fault injection (run under -DAFT_SANITIZE=thread in CI).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/core/aft_node.h"
#include "src/core/commit_batcher.h"
#include "src/core/records.h"
#include "src/storage/local_engine.h"
#include "src/storage/sim_dynamo.h"
#include "tests/pool_view_engine.h"

namespace aft {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/aft_cbatch_XXXXXX";
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

std::map<std::string, std::string> Snapshot(StorageEngine& engine) {
  std::map<std::string, std::string> out;
  auto keys = engine.List("");
  EXPECT_TRUE(keys.ok());
  for (const std::string& key : *keys) {
    auto value = engine.Get(key);
    EXPECT_TRUE(value.ok()) << key;
    if (value.ok()) {
      out[key] = *value;
    }
  }
  return out;
}


// Zero-latency engine profile: these tests exercise ordering and contention,
// not simulated round-trip times.
SimDynamoOptions InstantDynamoOptions() {
  SimDynamoOptions options;
  options.profile = EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero()};
  options.staleness = StalenessModel{};
  options.txn_call = LatencyModel::Zero();
  return options;
}

// Builds one commit unit over caller-owned backing vectors.
struct UnitFixture {
  std::vector<WriteOp> data;
  WriteOp record;
  CommitUnit unit() { return CommitUnit{std::span<WriteOp>(data), record}; }
};

UnitFixture MakeUnit(const std::string& tag, int data_ops) {
  UnitFixture f;
  for (int i = 0; i < data_ops; ++i) {
    f.data.push_back(
        WriteOp{"data/" + tag + "/" + std::to_string(i), "payload-" + tag + std::to_string(i)});
  }
  f.record = WriteOp{"commit/" + tag, "record-" + tag};
  return f;
}

AftNodeOptions FastNodeOptions() {
  AftNodeOptions options;
  options.service_cores = 0;  // No service-time throttling in tests.
  return options;
}

obs::Counter* FollowerCommits(const std::string& node_id) {
  return obs::MetricsRegistry::Global().GetCounter(
      "aft_commit_batch_commits_total", "Commits by batch role (follower piggybacked)",
      {{"node", node_id}, {"role", "follower"}});
}

// ---- storage-level contract -------------------------------------------------

TEST(CommitUnitsLocalEngine, MultiUnitRoundIsOneApiCallAndOneFsync) {
  TempDir dir;
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());

  UnitFixture a = MakeUnit("a", 2);
  UnitFixture b = MakeUnit("b", 3);
  UnitFixture c = MakeUnit("c", 1);
  std::vector<CommitUnit> units = {a.unit(), b.unit(), c.unit()};
  std::vector<Status> results(units.size());

  const Wal::Stats before = (*engine)->wal_stats();
  const uint64_t api_before = (*engine)->counters().api_calls.load();
  (*engine)->CommitUnits(units, results);
  const Wal::Stats after = (*engine)->wal_stats();

  for (const Status& r : results) {
    EXPECT_TRUE(r.ok()) << r.ToString();
  }
  // The whole round: one batched API call, one WAL append batch, one fsync.
  EXPECT_EQ((*engine)->counters().api_calls.load() - api_before, 1u);
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.fsyncs - before.fsyncs, 1u);
  // 6 data records + 3 commit records.
  EXPECT_EQ(after.records - before.records, 9u);

  for (const std::string& tag : {"a", "b", "c"}) {
    auto record = (*engine)->Get("commit/" + tag);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(*record, "record-" + tag);
  }
  auto payload = (*engine)->Get("data/b/2");
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "payload-b2");
}

TEST(CommitUnitsLocalEngine, PoisonedUnitAbortsAloneAndSurvivesReplay) {
  TempDir dir;
  std::map<std::string, std::string> committed_view;
  {
    auto engine = LocalEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok());
    // Fail unit b's SECOND data op: its first op is already accepted (the
    // engine's batches are not atomic), but its commit record must be
    // withheld.
    (*engine)->SetWriteFailureInjector([](std::string_view key) {
      if (key == "data/b/1") {
        return Status::Unavailable("injected write failure");
      }
      return Status::Ok();
    });

    UnitFixture a = MakeUnit("a", 2);
    UnitFixture b = MakeUnit("b", 3);
    UnitFixture c = MakeUnit("c", 1);
    std::vector<CommitUnit> units = {a.unit(), b.unit(), c.unit()};
    std::vector<Status> results(units.size());
    (*engine)->CommitUnits(units, results);

    EXPECT_TRUE(results[0].ok());
    EXPECT_FALSE(results[1].ok());
    EXPECT_TRUE(results[2].ok());

    // Batch-mates committed and readable; b's record absent, its accepted
    // data ops are invisible orphans.
    EXPECT_TRUE((*engine)->Get("commit/a").ok());
    EXPECT_EQ((*engine)->Get("commit/b").status().code(), StatusCode::kNotFound);
    EXPECT_TRUE((*engine)->Get("commit/c").ok());
    EXPECT_TRUE((*engine)->Get("data/b/0").ok());   // orphan (sweep's job)
    EXPECT_EQ((*engine)->Get("data/b/1").status().code(), StatusCode::kNotFound);
    committed_view = Snapshot(**engine);
  }
  // Reopen: WAL replay must reproduce the same state — in particular the
  // poisoned unit's record must STILL be absent.
  auto reopened = LocalEngine::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Snapshot(**reopened), committed_view);
  EXPECT_EQ((*reopened)->Get("commit/b").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE((*reopened)->Get("commit/a").ok());
  EXPECT_TRUE((*reopened)->Get("commit/c").ok());
}

TEST(CommitUnitsLocalEngine, FailedRecordWritePoisonsThatUnitOnly) {
  TempDir dir;
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  (*engine)->SetWriteFailureInjector([](std::string_view key) {
    if (key == "commit/b") {
      return Status::Unavailable("injected record failure");
    }
    return Status::Ok();
  });
  UnitFixture a = MakeUnit("a", 1);
  UnitFixture b = MakeUnit("b", 1);
  std::vector<CommitUnit> units = {a.unit(), b.unit()};
  std::vector<Status> results(units.size());
  (*engine)->CommitUnits(units, results);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE((*engine)->Get("commit/a").ok());
  EXPECT_EQ((*engine)->Get("commit/b").status().code(), StatusCode::kNotFound);
}

TEST(CommitUnitsDefaultImpl, TwoRoundFallbackPreservesPerUnitOutcomes) {
  // SimDynamo has no CommitUnits override: the default two merged
  // BatchPutEach rounds must produce the same contract.
  RealClock clock(0.002);
  SimDynamoOptions options = InstantDynamoOptions();
  SimDynamo engine(clock, options);

  UnitFixture a = MakeUnit("a", 2);
  UnitFixture b = MakeUnit("b", 1);
  std::vector<CommitUnit> units = {a.unit(), b.unit()};
  std::vector<Status> results(units.size());
  engine.CommitUnits(units, results);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(engine.PeekLatest("commit/a").has_value());
  EXPECT_TRUE(engine.PeekLatest("commit/b").has_value());
  EXPECT_TRUE(engine.PeekLatest("data/a/1").has_value());

  // Total failure: every unit is poisoned and no record is written.
  engine.InjectTransientFaults(1.0);
  UnitFixture c = MakeUnit("c", 1);
  UnitFixture d = MakeUnit("d", 1);
  std::vector<CommitUnit> units2 = {c.unit(), d.unit()};
  std::vector<Status> results2(units2.size());
  engine.CommitUnits(units2, results2);
  EXPECT_FALSE(results2[0].ok());
  EXPECT_FALSE(results2[1].ok());
  EXPECT_FALSE(engine.PeekLatest("commit/c").has_value());
  EXPECT_FALSE(engine.PeekLatest("commit/d").has_value());
}

// ---- node-level contract ----------------------------------------------------

TEST(CommitBatcherNode, BoundedPoolCommitEquivalentToUnboundedAfterReplay) {
  // The same concurrent workload through a node whose engine reports a pool
  // of one (the local engine's own; committers fuse whenever a round is in
  // flight) and one whose engine is unbounded (nothing ever queues) must
  // leave equivalent committed state, including after a reopen/replay cycle.
  constexpr int kThreads = 6;
  constexpr int kTxnsPerThread = 5;
  for (const size_t pool : {size_t{1}, size_t{0}}) {
    TempDir dir;
    RealClock clock(0.002);
    {
      auto engine = LocalEngine::Open(dir.path());
      ASSERT_TRUE(engine.ok());
      PoolViewEngine view(**engine, pool);
      AftNode node("n0", view, clock, FastNodeOptions());
      ASSERT_TRUE(node.Start().ok());
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (int i = 0; i < kTxnsPerThread; ++i) {
            auto txid = node.StartTransaction();
            ASSERT_TRUE(txid.ok());
            const std::string value = std::to_string(t) + ":" + std::to_string(i);
            ASSERT_TRUE(node.Put(*txid, "own-" + std::to_string(t), value).ok());
            ASSERT_TRUE(node.Put(*txid, "shared", value).ok());
            ASSERT_TRUE(node.CommitTransaction(*txid).ok());
          }
        });
      }
      for (std::thread& t : threads) {
        t.join();
      }
      EXPECT_LE(view.max_overlap(), pool == 0 ? size_t{kThreads} : pool);
    }
    auto reopened = LocalEngine::Open(dir.path());
    ASSERT_TRUE(reopened.ok());
    auto commits = (*reopened)->List(std::string(kCommitPrefix));
    ASSERT_TRUE(commits.ok());
    EXPECT_EQ(commits->size(), static_cast<size_t>(kThreads * kTxnsPerThread)) << "pool=" << pool;
    AftNode reader("reader", **reopened, clock, FastNodeOptions());
    ASSERT_TRUE(reader.Start().ok());
    auto txid = reader.StartTransaction();
    ASSERT_TRUE(txid.ok());
    for (int t = 0; t < kThreads; ++t) {
      auto own = reader.Get(*txid, "own-" + std::to_string(t));
      ASSERT_TRUE(own.ok()) << "pool=" << pool;
      ASSERT_TRUE(own->has_value());
      EXPECT_EQ(**own, std::to_string(t) + ":" + std::to_string(kTxnsPerThread - 1));
    }
    // Each thread commits its writes in order, so the newest write to
    // "shared" is some thread's last one; a lost or stale write is not.
    auto shared = reader.Get(*txid, "shared");
    ASSERT_TRUE(shared.ok());
    ASSERT_TRUE(shared->has_value());
    std::vector<std::string> last_writes;
    for (int t = 0; t < kThreads; ++t) {
      last_writes.push_back(std::to_string(t) + ":" + std::to_string(kTxnsPerThread - 1));
    }
    EXPECT_NE(std::find(last_writes.begin(), last_writes.end(), **shared), last_writes.end())
        << "pool=" << pool << " shared=" << **shared;
  }
}

TEST(CommitBatcherNode, FailedRoundLeavesTransactionRetryable) {
  TempDir dir;
  RealClock clock(0.002);
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  AftNode node("n0", **engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());

  std::atomic<bool> fail{true};
  (*engine)->SetWriteFailureInjector([&fail](std::string_view key) {
    if (fail.load() && key.find("doomed") != std::string_view::npos) {
      return Status::Unavailable("injected");
    }
    return Status::Ok();
  });

  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  ASSERT_TRUE(node.Put(*txid, "doomed", "v1").ok());
  EXPECT_FALSE(node.CommitTransaction(*txid).ok());
  // No commit record may exist for the failed attempt.
  auto commits = (*engine)->List(std::string(kCommitPrefix));
  ASSERT_TRUE(commits.ok());
  EXPECT_TRUE(commits->empty());

  // The transaction survives and a retry (fault cleared) commits it.
  fail.store(false);
  auto commit_id = node.CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok());
  auto reader_txn = node.StartTransaction();
  ASSERT_TRUE(reader_txn.ok());
  auto read = node.Get(*reader_txn, "doomed");
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read->has_value());
  EXPECT_EQ(**read, "v1");
}

TEST(CommitBatcherNode, PoisonedMemberDoesNotFailBatchMates) {
  // Concurrent committers where exactly one member's data write fails: the
  // poisoned transaction aborts with no commit record; every batch-mate
  // commits and its data survives a replay cycle. The local engine runs one
  // round at a time, so every committer that arrives mid-round is a
  // batch-mate.
  TempDir dir;
  RealClock clock(0.002);
  std::map<std::string, std::string> state_before_reopen;
  {
    auto engine = LocalEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok());
    AftNode node("n0", **engine, clock, FastNodeOptions());
    ASSERT_TRUE(node.Start().ok());
    (*engine)->SetWriteFailureInjector([](std::string_view key) {
      if (key.find("poison") != std::string_view::npos) {
        return Status::Unavailable("injected");
      }
      return Status::Ok();
    });

    constexpr int kThreads = 8;
    std::atomic<int> committed{0};
    std::atomic<int> failed{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        auto txid = node.StartTransaction();
        ASSERT_TRUE(txid.ok());
        const std::string key = (i == 3) ? "poisoned-key" : ("ok-" + std::to_string(i));
        ASSERT_TRUE(node.Put(*txid, key, "value-" + std::to_string(i)).ok());
        auto result = node.CommitTransaction(*txid);
        if (result.ok()) {
          committed.fetch_add(1);
        } else {
          failed.fetch_add(1);
          ASSERT_TRUE(node.AbortTransaction(*txid).ok());
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    EXPECT_EQ(committed.load(), kThreads - 1);
    EXPECT_EQ(failed.load(), 1);

    auto commits = (*engine)->List(std::string(kCommitPrefix));
    ASSERT_TRUE(commits.ok());
    EXPECT_EQ(commits->size(), static_cast<size_t>(kThreads - 1));
    state_before_reopen = Snapshot(**engine);
  }
  // Replay equivalence: reopen and read the mates' values through a fresh
  // node; the poisoned transaction must not have resurfaced.
  auto reopened = LocalEngine::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Snapshot(**reopened), state_before_reopen);
  AftNode reader("reader", **reopened, clock, FastNodeOptions());
  ASSERT_TRUE(reader.Start().ok());
  auto txid = reader.StartTransaction();
  ASSERT_TRUE(txid.ok());
  for (int i = 0; i < 8; ++i) {
    if (i == 3) {
      auto read = reader.Get(*txid, "poisoned-key");
      ASSERT_TRUE(read.ok());
      EXPECT_FALSE(read->has_value());
    } else {
      auto read = reader.Get(*txid, "ok-" + std::to_string(i));
      ASSERT_TRUE(read.ok());
      ASSERT_TRUE(read->has_value()) << i;
      EXPECT_EQ(**read, "value-" + std::to_string(i));
    }
  }
}

// ---- queue policy ------------------------------------------------------------

TEST(CommitBatcherQueuePolicy, AtMostKRoundsOverlapAndAFreeSlotNeverQueues) {
  RealClock clock(0.002);
  SimDynamo engine(clock, InstantDynamoOptions());
  constexpr size_t kPool = 2;
  PoolViewEngine view(engine, kPool);
  const std::string node_id = "queue-policy";
  AftNode node(node_id, view, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  const CommitStageHistograms stages = CommitStageHistograms::ForNode(node_id);
  obs::Counter* followers = FollowerCommits(node_id);

  auto commit = [&node](const std::string& key) {
    auto txid = node.StartTransaction();
    ASSERT_TRUE(txid.ok());
    ASSERT_TRUE(node.Put(*txid, key, "v-" + key).ok());
    EXPECT_TRUE(node.CommitTransaction(*txid).ok()) << key;
  };

  // One round held open: K - 1 slots busy. A committer arriving now runs
  // its own round at once — it completes while the held round is still in
  // flight, as the leader of a round it never queued for.
  view.Hold(1);
  std::vector<std::thread> threads;
  threads.emplace_back(commit, "held-0");
  view.AwaitInFlight(1);
  const uint64_t leaders_before = stages.queue_wait_leader->Count();
  const double leader_wait_before = stages.queue_wait_leader->Sum();
  const uint64_t followers_before = followers->Value();
  commit("free-slot");
  EXPECT_EQ(stages.queue_wait_leader->Count() - leaders_before, 1u);
  EXPECT_EQ(stages.queue_wait_leader->Sum(), leader_wait_before);
  EXPECT_EQ(followers->Value(), followers_before);

  // Fill the second slot, then pile committers up behind the full pool:
  // they queue, and once a slot frees one of them drains them all into one
  // round.
  view.Hold(1);
  threads.emplace_back(commit, "held-1");
  view.AwaitInFlight(kPool);
  constexpr int kQueued = 4;
  for (int i = 0; i < kQueued; ++i) {
    threads.emplace_back(commit, "queued-" + std::to_string(i));
  }
  // The queued committers are microseconds from the queue; give them ample
  // time to join it before the held rounds complete.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  view.Release();
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(view.max_overlap(), kPool);
  EXPECT_GT(followers->Value(), followers_before);

  // Free-running committers never push more than K rounds into the engine.
  threads.clear();
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        commit("free-" + std::to_string(t) + "-" + std::to_string(i));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_LE(view.max_overlap(), kPool);

  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  for (const std::string key : {"held-0", "held-1", "free-slot", "queued-3", "free-7-19"}) {
    auto read = node.Get(*txid, key);
    ASSERT_TRUE(read.ok());
    ASSERT_TRUE(read->has_value()) << key;
    EXPECT_EQ(**read, "v-" + key);
  }
}

// ---- packed layout through the batcher ---------------------------------------

TEST(CommitBatcherPackedLayout, ConcurrentPackedCommitsFuseAndReadBack) {
  // A bounded connection pool over a simulated round trip: committers
  // arriving while a round is in flight queue behind it and fuse.
  RealClock clock(0.05);
  SimDynamoOptions engine_options;
  engine_options.staleness = StalenessModel{};
  SimDynamo engine(clock, engine_options);
  engine.SetMaxConcurrentRequests(4);
  AftNodeOptions options = FastNodeOptions();
  options.packed_layout = true;
  const std::string node_id = "packed-fuse";
  AftNode node(node_id, engine, clock, options);
  ASSERT_TRUE(node.Start().ok());
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* rounds = reg.GetCounter("aft_commit_batch_rounds_total",
                                        "Batched commit rounds executed", {{"node", node_id}});
  obs::Counter* led = reg.GetCounter("aft_commit_batch_commits_total",
                                     "Commits by batch role (leader ran the round)",
                                     {{"node", node_id}, {"role", "leader"}});
  obs::Counter* followed = reg.GetCounter("aft_commit_batch_commits_total",
                                          "Commits by batch role (follower piggybacked)",
                                          {{"node", node_id}, {"role", "follower"}});
  const uint64_t rounds_before = rounds->Value();
  const uint64_t batched_before = led->Value() + followed->Value();

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const std::string tag = std::to_string(t) + "-" + std::to_string(i);
        auto txid = node.StartTransaction();
        ASSERT_TRUE(txid.ok());
        ASSERT_TRUE(node.Put(*txid, "a" + tag, "alpha-" + tag).ok());
        ASSERT_TRUE(node.Put(*txid, "b" + tag, "beta-" + tag).ok());
        ASSERT_TRUE(node.CommitTransaction(*txid).ok());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  constexpr uint64_t kCommits = kThreads * kTxnsPerThread;
  // Every packed commit went through the batcher, in fewer rounds.
  EXPECT_EQ(led->Value() + followed->Value() - batched_before, kCommits);
  EXPECT_LT(rounds->Value() - rounds_before, kCommits);
  EXPECT_EQ(engine.List(kSegmentPrefix)->size(), kCommits);
  EXPECT_TRUE(engine.List(kVersionPrefix)->empty());

  // A cold reader resolves every value by ranged GET into the segments.
  AftNode reader("packed-fuse-reader", engine, clock, FastNodeOptions());
  ASSERT_TRUE(reader.Start().ok());
  auto txid = reader.StartTransaction();
  ASSERT_TRUE(txid.ok());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kTxnsPerThread; ++i) {
      const std::string tag = std::to_string(t) + "-" + std::to_string(i);
      for (const std::string prefix : {"a", "b"}) {
        auto read = reader.Get(*txid, prefix + tag);
        ASSERT_TRUE(read.ok()) << read.status().ToString();
        ASSERT_TRUE(read->has_value()) << prefix << tag;
        EXPECT_EQ(**read, (prefix == "a" ? "alpha-" : "beta-") + tag);
      }
    }
  }
}

TEST(CommitBatcherPackedLayout, FailedRoundRetriesOnAFreshSegment) {
  TempDir dir;
  RealClock clock(0.002);
  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  AftNodeOptions options = FastNodeOptions();
  options.packed_layout = true;
  AftNode node("n0", **engine, clock, options);
  ASSERT_TRUE(node.Start().ok());

  // Fail the commit record only: the round lands its segment, then fails.
  std::atomic<bool> fail{true};
  (*engine)->SetWriteFailureInjector([&fail](std::string_view key) {
    if (fail.load() && key.starts_with(kCommitPrefix)) {
      return Status::Unavailable("injected record failure");
    }
    return Status::Ok();
  });

  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  ASSERT_TRUE(node.Put(*txid, "alpha", "first").ok());
  ASSERT_TRUE(node.Put(*txid, "beta", "B").ok());
  EXPECT_FALSE(node.CommitTransaction(*txid).ok());
  auto segments = (*engine)->List(std::string(kSegmentPrefix));
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  const std::string abandoned = segments->front();
  EXPECT_TRUE((*engine)->List(std::string(kCommitPrefix))->empty());

  // Still running: rewrite a key so the abandoned bytes no longer match,
  // then retry with the fault cleared.
  fail.store(false);
  ASSERT_TRUE(node.Put(*txid, "alpha", "second, longer").ok());
  auto commit_id = node.CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok()) << commit_id.status().ToString();

  auto record_bytes = (*engine)->Get(CommitStorageKey(*commit_id));
  ASSERT_TRUE(record_bytes.ok());
  auto record = CommitRecord::Deserialize(*record_bytes);
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record->locators.size(), 2u);
  for (const VersionLocator& locator : record->locators) {
    EXPECT_NE(SegmentStorageKey(*txid, locator.segment_index), abandoned) << locator.key;
  }

  AftNode reader("reader", **engine, clock, FastNodeOptions());
  ASSERT_TRUE(reader.Start().ok());
  auto reader_txn = reader.StartTransaction();
  ASSERT_TRUE(reader_txn.ok());
  auto alpha = reader.Get(*reader_txn, "alpha");
  auto beta = reader.Get(*reader_txn, "beta");
  ASSERT_TRUE(alpha.ok());
  ASSERT_TRUE(beta.ok());
  ASSERT_TRUE(alpha->has_value());
  ASSERT_TRUE(beta->has_value());
  EXPECT_EQ(**alpha, "second, longer");
  EXPECT_EQ(**beta, "B");
}

// ---- concurrency stress (TSan leg) ------------------------------------------

TEST(CommitBatcherStress, ConcurrentCommittersUnderTransientFaults) {
  // Many committers race through the batcher against an engine that fails
  // writes at random; every failure is retried until it lands. A pool of two
  // with a 100 µs write keeps both round slots busy, so this exercises solo /
  // leader / follower paths, leadership handoff between concurrent rounds,
  // and per-member poisoning concurrently. Run under TSan in CI.
  RealClock clock(0.002);
  SimDynamoOptions options = InstantDynamoOptions();
  options.profile.put = LatencyModel(50, 0);  // 50 simulated ms = 100 µs wall.
  options.profile.batch_base = LatencyModel(50, 0);
  SimDynamo engine(clock, options);
  engine.SetMaxConcurrentRequests(2);
  engine.InjectTransientFaults(0.05);

  const std::string node_id = "stress";
  AftNode node(node_id, engine, clock, FastNodeOptions());
  ASSERT_TRUE(node.Start().ok());
  const uint64_t followers_before = FollowerCommits(node_id)->Value();

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> total_committed{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto txid = node.StartTransaction();
        ASSERT_TRUE(txid.ok());
        const std::string value = std::to_string(t) + ":" + std::to_string(i);
        ASSERT_TRUE(node.Put(*txid, "slot-" + std::to_string(t), value).ok());
        ASSERT_TRUE(node.Put(*txid, "hot", value).ok());
        // Retry through transient faults; commit must eventually land.
        Status committed = Status::Unavailable("not yet");
        for (int attempt = 0; attempt < 200 && !committed.ok(); ++attempt) {
          auto result = node.CommitTransaction(*txid);
          committed = result.ok() ? Status::Ok() : result.status();
        }
        ASSERT_TRUE(committed.ok()) << committed.ToString();
        total_committed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(total_committed.load(), kThreads * kTxnsPerThread);
  EXPECT_GT(FollowerCommits(node_id)->Value() - followers_before, 0u)
      << "no committer ever fused into another's round";

  engine.InjectTransientFaults(0.0);
  auto txid = node.StartTransaction();
  ASSERT_TRUE(txid.ok());
  for (int t = 0; t < kThreads; ++t) {
    auto read = node.Get(*txid, "slot-" + std::to_string(t));
    ASSERT_TRUE(read.ok());
    ASSERT_TRUE(read->has_value()) << t;
    // The thread's last committed write is its final value.
    EXPECT_EQ(**read, std::to_string(t) + ":" + std::to_string(kTxnsPerThread - 1));
  }
}

}  // namespace
}  // namespace aft
