// Unit tests for the key version index, commit set cache and data cache.

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/common/rng.h"
#include "src/core/commit_set_cache.h"
#include "src/core/data_cache.h"
#include "src/core/key_version_index.h"
#include "src/core/read_algorithm.h"

namespace aft {
namespace {

TxnId MakeId(int64_t ts) {
  static Rng rng(101);
  return TxnId(ts, Uuid::Random(rng));
}

CommitRecordPtr MakeRecord(int64_t ts, std::vector<std::string> keys) {
  return std::make_shared<const CommitRecord>(CommitRecord{MakeId(ts), std::move(keys)});
}

// ---- KeyVersionIndex ----------------------------------------------------------

TEST(KeyVersionIndexTest, LatestVersionTracksNewest) {
  KeyVersionIndex index;
  EXPECT_TRUE(index.LatestVersion("k").IsNull());
  auto r1 = MakeRecord(10, {"k"});
  auto r2 = MakeRecord(20, {"k", "l"});
  index.AddCommit(*r1);
  index.AddCommit(*r2);
  EXPECT_EQ(index.LatestVersion("k"), r2->id);
  EXPECT_EQ(index.LatestVersion("l"), r2->id);
}

TEST(KeyVersionIndexTest, CandidatesNewestFirstRespectingLowerBound) {
  KeyVersionIndex index;
  auto r1 = MakeRecord(10, {"k"});
  auto r2 = MakeRecord(20, {"k"});
  auto r3 = MakeRecord(30, {"k"});
  index.AddCommit(*r1);
  index.AddCommit(*r2);
  index.AddCommit(*r3);

  auto all = index.CandidatesBelow("k", TxnId::Null(), TxnId::Null());
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], r3->id);
  EXPECT_EQ(all[2], r1->id);

  auto bounded = index.CandidatesBelow("k", r2->id, TxnId::Null());
  ASSERT_EQ(bounded.size(), 2u);
  EXPECT_EQ(bounded[0], r3->id);
  EXPECT_EQ(bounded[1], r2->id);

  EXPECT_TRUE(index.CandidatesBelow("missing", TxnId::Null(), TxnId::Null()).empty());
}

TEST(KeyVersionIndexTest, CandidatePagesWalkDownFromTheCursor) {
  KeyVersionIndex index;
  constexpr size_t kPage = KeyVersionIndex::kCandidatePage;
  std::vector<TxnId> ids;  // Ascending.
  for (size_t i = 1; i <= 2 * kPage + 1; ++i) {
    auto record = MakeRecord(static_cast<int64_t>(10 * i), {"k"});
    index.AddCommit(*record);
    ids.push_back(record->id);
  }
  // Full pages of the newest versions, then the short last page.
  std::vector<TxnId> walked;
  TxnId below = TxnId::Null();
  size_t pages = 0;
  for (;;) {
    auto page = index.CandidatesBelow("k", TxnId::Null(), below);
    ++pages;
    walked.insert(walked.end(), page.begin(), page.end());
    if (page.size() < kPage) {
      break;
    }
    below = page.back();
  }
  EXPECT_EQ(pages, 3u);
  EXPECT_EQ(walked, std::vector<TxnId>(ids.rbegin(), ids.rend()));

  // The cursor is exclusive, a cursor between versions works, and the lower
  // bound cuts a page short.
  auto page = index.CandidatesBelow("k", ids[1], ids[3]);
  ASSERT_EQ(page.size(), 2u);
  EXPECT_EQ(page[0], ids[2]);
  EXPECT_EQ(page[1], ids[1]);
  const TxnId between(ids[3].timestamp - 1, ids[3].uuid);
  page = index.CandidatesBelow("k", TxnId::Null(), between);
  ASSERT_EQ(page.size(), 3u);
  EXPECT_EQ(page[0], ids[2]);
  EXPECT_TRUE(index.CandidatesBelow("k", TxnId::Null(), ids[0]).empty());
}

TEST(KeyVersionIndexTest, RemoveCommitDropsVersions) {
  KeyVersionIndex index;
  auto r1 = MakeRecord(10, {"k", "l"});
  auto r2 = MakeRecord(20, {"k"});
  index.AddCommit(*r1);
  index.AddCommit(*r2);
  index.RemoveCommit(*r1);
  EXPECT_EQ(index.LatestVersion("k"), r2->id);
  EXPECT_TRUE(index.LatestVersion("l").IsNull());
  auto page = index.CandidatesBelow("k", TxnId::Null(), TxnId::Null());
  ASSERT_EQ(page.size(), 1u);
  EXPECT_EQ(page[0], r2->id);
}

TEST(KeyVersionIndexTest, CountsAreAccurate) {
  KeyVersionIndex index;
  index.AddCommit(*MakeRecord(10, {"a", "b"}));
  index.AddCommit(*MakeRecord(20, {"b", "c"}));
  EXPECT_EQ(index.KeyCount(), 3u);
  EXPECT_EQ(index.TotalVersionCount(), 4u);
}

TEST(KeyVersionIndexTest, ConcurrentReadersAndWriters) {
  KeyVersionIndex index;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 1; i <= 500; ++i) {
      index.AddCommit(*MakeRecord(i, {"hot"}));
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      (void)index.LatestVersion("hot");
      (void)index.CandidatesBelow("hot", TxnId::Null(), TxnId::Null());
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(index.TotalVersionCount(), 500u);
}

// ---- Supersedence tracker ----------------------------------------------------------

std::vector<TxnId> Drain(KeyVersionIndex& index) {
  std::vector<TxnId> out;
  index.TakeSuperseded(&out);
  return out;
}

TEST(SupersedenceTrackerTest, NewerVersionsOnEveryKeySupersede) {
  KeyVersionIndex index;
  auto r1 = MakeRecord(10, {"k", "l"});
  auto r2 = MakeRecord(20, {"k"});
  auto r3 = MakeRecord(30, {"l"});
  index.AddCommit(*r1);
  index.AddCommit(*r2);
  EXPECT_FALSE(index.IsSuperseded(r1->id)) << "still the newest version of l";
  EXPECT_TRUE(Drain(index).empty());
  index.AddCommit(*r3);
  EXPECT_TRUE(index.IsSuperseded(r1->id));
  EXPECT_FALSE(index.IsSuperseded(r2->id));
  EXPECT_EQ(Drain(index), std::vector<TxnId>{r1->id});
  EXPECT_TRUE(Drain(index).empty()) << "handed out once";
  EXPECT_TRUE(index.IsSuperseded(r1->id)) << "draining does not change the answer";
}

TEST(SupersedenceTrackerTest, LateAndEmptyRecordsAreQueuedOnIndexing) {
  KeyVersionIndex index;
  auto newer = MakeRecord(20, {"k"});
  auto late = MakeRecord(10, {"k"});
  auto empty = MakeRecord(15, {});
  index.AddCommit(*newer);
  index.AddCommit(*late);   // Arrives behind the newest version of k.
  index.AddCommit(*empty);  // Vacuously superseded.
  index.AddCommit(*late);   // Duplicate: no second queue entry.
  EXPECT_TRUE(index.IsSuperseded(late->id));
  EXPECT_TRUE(index.IsSuperseded(empty->id));
  EXPECT_EQ(Drain(index), (std::vector<TxnId>{late->id, empty->id}));
}

TEST(SupersedenceTrackerTest, RemovingTheNewestVersionCreditsTheNextNewest) {
  KeyVersionIndex index;
  auto r1 = MakeRecord(10, {"k"});
  auto r2 = MakeRecord(20, {"k"});
  index.AddCommit(*r1);
  index.AddCommit(*r2);
  index.RemoveCommit(*r2);
  EXPECT_FALSE(index.IsSuperseded(r1->id));
  EXPECT_FALSE(index.IsSuperseded(r2->id)) << "not indexed";
  EXPECT_TRUE(Drain(index).empty()) << "current again before anyone drained it";
  index.AddCommit(*r2);
  EXPECT_EQ(Drain(index), std::vector<TxnId>{r1->id}) << "superseded again: queued again";
  index.RemoveCommit(*r1);
  index.AddCommit(*MakeRecord(30, {"k"}));
  EXPECT_EQ(Drain(index), std::vector<TxnId>{r2->id}) << "a removed record is never handed out";
}

// Differential test: over seeded out-of-order histories of adds, duplicate
// adds and removals (newest versions and empty write sets included), the
// tracker agrees with Algorithm 2's per-key definition on every indexed
// record, and its queue hands out exactly the records that became
// superseded: a consumer that keeps what it drained while it stays
// superseded always holds the full superseded set.
TEST(SupersedenceTrackerTest, AgreesWithThePerKeyDefinition) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
    std::vector<CommitRecordPtr> records;
    for (int i = 0; i < 60; ++i) {
      std::vector<std::string> write_set;
      const uint64_t size = rng.Below(4);  // 0..3 keys; 0 is the empty write set.
      for (uint64_t j = 0; j < size; ++j) {
        write_set.push_back(keys[rng.Below(keys.size())]);
      }
      records.push_back(std::make_shared<const CommitRecord>(CommitRecord{
          TxnId(1 + static_cast<int64_t>(rng.Below(40)), Uuid::Random(rng)), write_set}));
    }
    KeyVersionIndex index;
    std::set<TxnId> indexed;
    std::set<TxnId> held;  // Drained and still superseded.
    for (int step = 0; step < 400; ++step) {
      const CommitRecordPtr& record = records[rng.Below(records.size())];
      if (rng.Below(3) == 0) {
        index.RemoveCommit(*record);
        indexed.erase(record->id);
      } else {
        index.AddCommit(*record);
        indexed.insert(record->id);
      }
      std::set<TxnId> superseded;
      for (const CommitRecordPtr& r : records) {
        if (!indexed.contains(r->id)) {
          ASSERT_FALSE(index.IsSuperseded(r->id)) << "seed " << seed << " step " << step;
          continue;
        }
        const bool oracle = IsTransactionSuperseded(*r, index);
        ASSERT_EQ(index.IsSuperseded(r->id), oracle) << "seed " << seed << " step " << step;
        if (oracle) {
          superseded.insert(r->id);
        }
      }
      std::erase_if(held, [&](const TxnId& id) { return !superseded.contains(id); });
      for (const TxnId& id : Drain(index)) {
        ASSERT_TRUE(superseded.contains(id)) << "seed " << seed << " step " << step;
        held.insert(id);
      }
      ASSERT_EQ(held, superseded) << "seed " << seed << " step " << step;
    }
  }
}

// ---- CommitSetCache --------------------------------------------------------------

TEST(CommitSetCacheTest, AddLookupRemove) {
  CommitSetCache cache;
  auto record = MakeRecord(10, {"k"});
  EXPECT_TRUE(cache.Add(record));
  EXPECT_FALSE(cache.Add(record));  // Duplicate.
  EXPECT_TRUE(cache.Contains(record->id));
  EXPECT_EQ(cache.Lookup(record->id), record);
  cache.Remove(record->id);
  EXPECT_FALSE(cache.Contains(record->id));
  EXPECT_EQ(cache.Lookup(record->id), nullptr);
}

TEST(CommitSetCacheTest, RemoveRemembersLocallyDeleted) {
  CommitSetCache cache;
  auto record = MakeRecord(10, {"k"});
  cache.Add(record);
  EXPECT_FALSE(cache.HasLocallyDeleted(record->id));
  cache.Remove(record->id);
  EXPECT_TRUE(cache.HasLocallyDeleted(record->id));
  cache.ForgetLocallyDeleted(record->id);
  EXPECT_FALSE(cache.HasLocallyDeleted(record->id));
}

TEST(CommitSetCacheTest, RemovingUnknownIdIsNotADeletion) {
  CommitSetCache cache;
  const TxnId id = MakeId(99);
  cache.Remove(id);
  EXPECT_FALSE(cache.HasLocallyDeleted(id));
}

TEST(CommitSetCacheTest, SizeCountsEveryShard) {
  CommitSetCache cache;
  cache.Add(MakeRecord(10, {"a"}));
  cache.Add(MakeRecord(20, {"b"}));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CommitSetCacheTest, PinnedRecordSurvivesRemoval) {
  CommitSetCache cache;
  auto record = MakeRecord(10, {"k"});
  cache.Add(record);
  CommitRecordPtr pinned = cache.Lookup(record->id);
  cache.Remove(record->id);
  // A running transaction holding the pointer can still read the metadata.
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->write_set, std::vector<std::string>{"k"});
}

// ---- DataCache --------------------------------------------------------------------

TEST(DataCacheTest, DisabledCacheStoresNothing) {
  DataCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Put("k", "payload");
  EXPECT_FALSE(cache.Get("k").has_value());
}

TEST(DataCacheTest, PutGetErase) {
  DataCache cache(1 << 20);
  cache.Put("k", "payload");
  EXPECT_EQ(cache.Get("k").value(), "payload");
  cache.Erase("k");
  EXPECT_FALSE(cache.Get("k").has_value());
}

TEST(DataCacheTest, HitAndMissCountersWork) {
  DataCache cache(1 << 20);
  cache.Put("k", "v");
  (void)cache.Get("k");
  (void)cache.Get("missing");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(DataCacheTest, EvictsLruWhenOverBudget) {
  DataCache cache(10);  // Tiny: holds at most 2 x 5-byte entries.
  cache.Put("a", "11111");
  cache.Put("b", "22222");
  (void)cache.Get("a");   // Touch a: b becomes LRU.
  cache.Put("c", "33333");  // Evicts b.
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_LE(cache.size_bytes(), 10u);
}

TEST(DataCacheTest, OversizedEntryIsRejected) {
  DataCache cache(4);
  cache.Put("k", "too large for the cache");
  EXPECT_FALSE(cache.Get("k").has_value());
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(DataCacheTest, OverwriteUpdatesBytes) {
  DataCache cache(100);
  cache.Put("k", "aaaa");
  cache.Put("k", "bb");
  EXPECT_EQ(cache.Get("k").value(), "bb");
  EXPECT_EQ(cache.size_bytes(), 2u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(DataCacheTest, ConcurrentAccessIsSafe) {
  DataCache cache(1 << 16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        const std::string key = "k" + std::to_string((t * 1000 + i) % 64);
        cache.Put(key, std::string(32, 'x'));
        (void)cache.Get(key);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_LE(cache.size_bytes(), 1u << 16);
}

}  // namespace
}  // namespace aft
