// Unit tests for Algorithm 1 (AtomicRead) and Algorithm 2 (supersedence),
// including the paper's worked examples from §3.2 and §5.2.1.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/common/rng.h"
#include "src/core/read_algorithm.h"

namespace aft {
namespace {

class ReadAlgorithmTest : public ::testing::Test {
 protected:
  TxnId Commit(int64_t ts, std::vector<std::string> keys) {
    auto record = std::make_shared<const CommitRecord>(
        CommitRecord{TxnId(ts, Uuid::Random(rng_)), std::move(keys)});
    commits_.Add(record);
    index_.AddCommit(*record);
    return record->id;
  }

  // Runs Algorithm 1 and, on success, folds the choice into the read set.
  AtomicReadChoice Read(const std::string& key) {
    AtomicReadChoice choice = SelectAtomicReadVersion(key, read_set_, index_, commits_);
    if (choice.kind == AtomicReadChoice::Kind::kVersion) {
      read_set_[key] = ReadSetEntry{choice.version, choice.record};
    }
    return choice;
  }

  Rng rng_{42};
  KeyVersionIndex index_;
  CommitSetCache commits_;
  std::unordered_map<std::string, ReadSetEntry> read_set_;
};

TEST_F(ReadAlgorithmTest, UnknownKeyReadsNullVersion) {
  const AtomicReadChoice choice = Read("nope");
  EXPECT_EQ(choice.kind, AtomicReadChoice::Kind::kNullVersion);
}

TEST_F(ReadAlgorithmTest, ReadsNewestCommittedVersion) {
  Commit(10, {"k"});
  const TxnId newest = Commit(20, {"k"});
  const AtomicReadChoice choice = Read("k");
  ASSERT_EQ(choice.kind, AtomicReadChoice::Kind::kVersion);
  EXPECT_EQ(choice.version, newest);
}

// The §3.2 example: T1:{l1}, T2:{k2,l2}. After reading k2, a read of l must
// return l2 (or newer), never l1.
TEST_F(ReadAlgorithmTest, PaperSection32Example) {
  Commit(10, {"l"});                       // T1
  const TxnId t2 = Commit(20, {"k", "l"});  // T2

  const AtomicReadChoice k_choice = Read("k");
  ASSERT_EQ(k_choice.kind, AtomicReadChoice::Kind::kVersion);
  EXPECT_EQ(k_choice.version, t2);

  const AtomicReadChoice l_choice = Read("l");
  ASSERT_EQ(l_choice.kind, AtomicReadChoice::Kind::kVersion);
  EXPECT_EQ(l_choice.version, t2) << "must not read l1 < l2 (fractured read)";
}

// Restriction (2) of Theorem 1: after reading an OLD l, a newer k cowritten
// with a newer l is invalid; we fall back to an older compatible k.
TEST_F(ReadAlgorithmTest, OldReadForcesStaleCompatibleVersion) {
  const TxnId t1 = Commit(10, {"l"});
  const TxnId t2 = Commit(20, {"k"});       // Independent old k.
  const TxnId t3 = Commit(30, {"k", "l"});  // Newer cowrite of both.

  // Force-read l at t1 (simulating a read that happened before t3 existed).
  auto t1_record = commits_.Lookup(t1);
  read_set_["l"] = ReadSetEntry{t1, t1_record};

  const AtomicReadChoice choice = Read("k");
  ASSERT_EQ(choice.kind, AtomicReadChoice::Kind::kVersion);
  EXPECT_EQ(choice.version, t2) << "k@t3 conflicts with l@t1; must fall back to k@t2";
  (void)t3;
}

// §3.6 extreme case: if the only version of k conflicts and a lower bound
// exists... but with no lower bound, reading NULL is a consistent snapshot.
TEST_F(ReadAlgorithmTest, AllVersionsConflictWithNoLowerBoundReadsNull) {
  const TxnId t1 = Commit(10, {"l"});
  Commit(30, {"k", "l"});  // The ONLY version of k, cowritten with newer l.

  read_set_["l"] = ReadSetEntry{t1, commits_.Lookup(t1)};
  const AtomicReadChoice choice = Read("k");
  EXPECT_EQ(choice.kind, AtomicReadChoice::Kind::kNullVersion);
}

// §5.2.1 worked example: Ta:{ka}, Tb:{lb}, Tc:{kc,lc}, a<b<c. Tr reads ka.
// If Tb is garbage collected, the read of l finds no valid version (lc is
// invalid because it was cowritten with kc > ka... actually lc conflicts via
// the cowrite constraint) and must abort.
TEST_F(ReadAlgorithmTest, PaperSection521MissingVersionForcesAbort) {
  const TxnId ta = Commit(10, {"k"});
  const TxnId tb = Commit(20, {"l"});
  Commit(30, {"k", "l"});  // Tc.

  // Tr reads ka (the algorithm would prefer kc, so pin it explicitly: Tr
  // read k before Tc committed).
  read_set_["k"] = ReadSetEntry{ta, commits_.Lookup(ta)};

  // GC deletes Tb.
  auto tb_record = commits_.Lookup(tb);
  index_.RemoveCommit(*tb_record);
  commits_.Remove(tb);

  // Reading l: lc is invalid (cowritten with kc, but we read ka < kc).
  // lb is gone. No lower bound on l exists, so NULL is still consistent.
  const AtomicReadChoice choice = Read("l");
  EXPECT_EQ(choice.kind, AtomicReadChoice::Kind::kNullVersion);
}

// A true forced abort: the read set REQUIRES a version of k (lower bound set
// by a cowrite) but every candidate has been GC'd.
TEST_F(ReadAlgorithmTest, LowerBoundWithNoCandidatesAborts) {
  const TxnId t2 = Commit(20, {"k", "l"});
  read_set_["l"] = ReadSetEntry{t2, commits_.Lookup(t2)};

  // GC drops T2's index entries for k (simulate: remove and re-add only l).
  auto t2_record = commits_.Lookup(t2);
  index_.RemoveCommit(*t2_record);
  commits_.Remove(t2);

  const AtomicReadChoice choice =
      SelectAtomicReadVersion("k", read_set_, index_, commits_);
  EXPECT_EQ(choice.kind, AtomicReadChoice::Kind::kNoValidVersion);
}

// Repeatable read (Corollary 1.1): re-reading a key returns the same version
// even after newer versions commit.
TEST_F(ReadAlgorithmTest, RepeatableRead) {
  const TxnId t1 = Commit(10, {"k"});
  const AtomicReadChoice first = Read("k");
  ASSERT_EQ(first.version, t1);

  Commit(20, {"k"});  // A newer version lands mid-transaction.
  const AtomicReadChoice second = Read("k");
  ASSERT_EQ(second.kind, AtomicReadChoice::Kind::kVersion);
  EXPECT_EQ(second.version, t1) << "repeatable read violated";
}

// A newer version NOT cowritten with anything we read IS eligible for keys
// we have not read yet (reads see fresh data when allowed).
TEST_F(ReadAlgorithmTest, IndependentKeysReadFreshest) {
  Commit(10, {"a"});
  const TxnId newest_b = Commit(50, {"b"});
  (void)Read("a");
  const AtomicReadChoice choice = Read("b");
  EXPECT_EQ(choice.version, newest_b);
}

// Lower bound from cowrite forces skipping older versions entirely.
TEST_F(ReadAlgorithmTest, LowerBoundSkipsOlderVersions) {
  Commit(10, {"k"});
  const TxnId t2 = Commit(20, {"k", "l"});
  read_set_["l"] = ReadSetEntry{t2, commits_.Lookup(t2)};
  const AtomicReadChoice choice = Read("k");
  ASSERT_EQ(choice.kind, AtomicReadChoice::Kind::kVersion);
  EXPECT_EQ(choice.version, t2);
}

// Property sweep: random histories — every read set built through the
// algorithm satisfies Definition 1.
class ReadAlgorithmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ReadAlgorithmPropertyTest, ReadSetsAreAlwaysAtomic) {
  Rng rng(1000 + GetParam());
  KeyVersionIndex index;
  CommitSetCache commits;
  const std::vector<std::string> keys{"a", "b", "c", "d", "e"};

  // Generate a random committed history.
  std::vector<CommitRecordPtr> records;
  for (int i = 1; i <= 60; ++i) {
    std::vector<std::string> write_set;
    for (const auto& key : keys) {
      if (rng.Bernoulli(0.4)) {
        write_set.push_back(key);
      }
    }
    if (write_set.empty()) {
      write_set.push_back(keys[rng.Below(keys.size())]);
    }
    auto record = std::make_shared<const CommitRecord>(
        CommitRecord{TxnId(i * 10, Uuid::Random(rng)), std::move(write_set)});
    commits.Add(record);
    index.AddCommit(*record);
    records.push_back(record);
  }

  // Run many random read-only transactions and check Definition 1.
  for (int txn = 0; txn < 50; ++txn) {
    std::unordered_map<std::string, ReadSetEntry> read_set;
    for (int op = 0; op < 8; ++op) {
      const std::string& key = keys[rng.Below(keys.size())];
      AtomicReadChoice choice = SelectAtomicReadVersion(key, read_set, index, commits);
      ASSERT_NE(choice.kind, AtomicReadChoice::Kind::kNoValidVersion)
          << "no GC ran; a valid version must always exist";
      if (choice.kind == AtomicReadChoice::Kind::kVersion) {
        read_set[key] = ReadSetEntry{choice.version, choice.record};
      }
      // Definition 1: forall ki in R, forall li in ki.cowritten with lj in R:
      // j >= i.
      for (const auto& [read_key, entry] : read_set) {
        for (const std::string& cokey : entry.record->write_set) {
          auto it = read_set.find(cokey);
          if (it != read_set.end()) {
            EXPECT_GE(it->second.version, entry.version)
                << "fractured read set: " << read_key << " vs " << cokey;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadAlgorithmPropertyTest, ::testing::Range(0, 8));

// ---- Paged walk vs the full-list walk ---------------------------------------------

using ReadSet = std::unordered_map<std::string, ReadSetEntry>;

// Reference walk: takes every version >= lower of the key's (ascending)
// version list up front and walks them newest first, with no paging.
AtomicReadChoice FullListSelect(const std::string& key, const ReadSet& read_set,
                                const std::vector<TxnId>& versions,
                                const CommitSetCache& commits) {
  TxnId lower = TxnId::Null();
  for (const auto& [read_key, entry] : read_set) {
    if (entry.record == nullptr) {
      continue;
    }
    const auto& cowritten = entry.record->write_set;
    if (std::find(cowritten.begin(), cowritten.end(), key) != cowritten.end()) {
      lower = std::max(lower, entry.version);
    }
  }
  const TxnId latest = versions.empty() ? TxnId::Null() : versions.back();
  if (latest.IsNull() && lower.IsNull()) {
    return AtomicReadChoice{AtomicReadChoice::Kind::kNullVersion, TxnId::Null(), nullptr};
  }
  std::vector<TxnId> candidates;
  for (auto it = versions.rbegin(); it != versions.rend() && !(*it < lower); ++it) {
    candidates.push_back(*it);
  }
  uint32_t examined = 0;
  for (const TxnId& t : candidates) {
    ++examined;
    CommitRecordPtr record = commits.Lookup(t);
    if (record == nullptr) {
      continue;
    }
    const bool valid =
        std::none_of(record->write_set.begin(), record->write_set.end(), [&](const auto& l) {
          auto it = read_set.find(l);
          return it != read_set.end() && it->second.version < t;
        });
    if (valid) {
      return AtomicReadChoice{AtomicReadChoice::Kind::kVersion, t, std::move(record), examined};
    }
  }
  return AtomicReadChoice{lower.IsNull() ? AtomicReadChoice::Kind::kNullVersion
                                         : AtomicReadChoice::Kind::kNoValidVersion,
                          TxnId::Null(), nullptr, examined};
}

class PagedWalkTest : public ::testing::Test {
 protected:
  static constexpr size_t kPage = KeyVersionIndex::kCandidatePage;

  CommitRecordPtr Commit(int64_t ts, std::vector<std::string> keys) {
    auto record = std::make_shared<const CommitRecord>(
        CommitRecord{TxnId(ts, Uuid::Random(rng_)), std::move(keys)});
    commits_.Add(record);
    index_.AddCommit(*record);
    for (const std::string& key : record->write_set) {
      auto& list = history_[key];
      list.insert(std::lower_bound(list.begin(), list.end(), record->id), record->id);
    }
    return record;
  }

  // GC of the record: gone from the index, the commit set and the history.
  void Collect(const CommitRecordPtr& record) {
    index_.RemoveCommit(*record);
    commits_.Remove(record->id);
    for (const std::string& key : record->write_set) {
      auto& list = history_[key];
      list.erase(std::find(list.begin(), list.end(), record->id));
    }
  }

  // Runs both walks and checks they agree; returns the paged walk's choice.
  AtomicReadChoice ExpectSameAsFullList(const std::string& key, const ReadSet& read_set) {
    const AtomicReadChoice paged = SelectAtomicReadVersion(key, read_set, index_, commits_);
    const AtomicReadChoice full = FullListSelect(key, read_set, history_[key], commits_);
    EXPECT_EQ(paged.kind, full.kind) << key;
    EXPECT_EQ(paged.version, full.version) << key;
    EXPECT_EQ(paged.candidates_examined, full.candidates_examined) << key;
    EXPECT_EQ(paged.record, full.record) << key;
    return paged;
  }

  Rng rng_{77};
  KeyVersionIndex index_;
  CommitSetCache commits_;
  std::map<std::string, std::vector<TxnId>> history_;  // Ascending; mirrors index_.
};

// Random histories (up to ~64 versions per key, committed out of order, some
// records collected and some with their metadata already dropped from the
// commit set) and random read sets — not necessarily atomic ones, so that
// long runs of candidates get rejected and walks cross many pages.
class PagedWalkPropertyTest : public PagedWalkTest, public ::testing::WithParamInterface<int> {};

TEST_P(PagedWalkPropertyTest, MatchesFullListWalk) {
  rng_.Seed(5000 + GetParam());
  const std::vector<std::string> keys{"a", "b", "c", "d"};
  const int txn_count = 1 + static_cast<int>(rng_.Below(128));
  std::vector<int64_t> stamps;
  for (int i = 1; i <= txn_count; ++i) {
    stamps.push_back(10 * i);
  }
  std::shuffle(stamps.begin(), stamps.end(), rng_);
  std::map<std::string, std::vector<CommitRecordPtr>> writers;
  std::vector<CommitRecordPtr> records;
  for (int64_t ts : stamps) {
    std::vector<std::string> write_set;
    for (const auto& key : keys) {
      if (rng_.Bernoulli(0.5)) {
        write_set.push_back(key);
      }
    }
    if (write_set.empty()) {
      write_set.push_back(keys[rng_.Below(keys.size())]);
    }
    records.push_back(Commit(ts, std::move(write_set)));
    for (const std::string& key : records.back()->write_set) {
      writers[key].push_back(records.back());
    }
  }
  for (const CommitRecordPtr& record : records) {
    const double roll = rng_.NextDouble();
    if (roll < 0.1) {
      Collect(record);
    } else if (roll < 0.2) {
      commits_.Remove(record->id);  // Still indexed: the walk skips it on lookup.
    }
  }

  uint32_t deepest = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ReadSet read_set;
    for (const auto& key : keys) {
      if (!writers[key].empty() && rng_.Bernoulli(0.5)) {
        const CommitRecordPtr& record = writers[key][rng_.Below(writers[key].size())];
        read_set[key] = ReadSetEntry{record->id, record};
      }
    }
    for (const auto& key : keys) {
      deepest = std::max(deepest, ExpectSameAsFullList(key, read_set).candidates_examined);
    }
  }
  if (txn_count > 32) {
    EXPECT_GT(deepest, 2 * kPage) << "walks should cross several pages";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagedWalkPropertyTest, ::testing::Range(0, 16));

// `rejected` versions of k, each cowritten with l after the l version the
// read set holds, sit above `older` versions of k alone.
class PageBoundaryTest : public PagedWalkTest {
 protected:
  void Build(size_t rejected, size_t older) {
    const CommitRecordPtr l = Commit(5, {"l"});
    read_set_["l"] = ReadSetEntry{l->id, l};
    for (size_t i = 0; i < older; ++i) {
      older_.push_back(Commit(10 + static_cast<int64_t>(i), {"k"}));
    }
    for (size_t i = 0; i < rejected; ++i) {
      Commit(100 + static_cast<int64_t>(i), {"k", "l"});
    }
  }

  // A version GC'd while the walk is between pages. The next page is read
  // after the removal, so the paged walk sees exactly what it would see had
  // the version been collected before the read began: it never examines it.
  // The full-list walk had copied it and skips it on the failed lookup. Both
  // pick the same version; the paged walk examines one candidate fewer.
  void ExpectRemovalBetweenPagesIsSkipped(size_t rejected) {
    Build(rejected, 2);
    // The newest older version is the first candidate below the first page
    // (rejected == kPage) or the second on the next page (kPage + 1).
    const CommitRecordPtr removed = older_.back();
    const std::vector<TxnId> before_removal = history_["k"];
    Collect(removed);
    const AtomicReadChoice paged = SelectAtomicReadVersion("k", read_set_, index_, commits_);
    const AtomicReadChoice full = FullListSelect("k", read_set_, before_removal, commits_);
    ASSERT_EQ(paged.kind, AtomicReadChoice::Kind::kVersion);
    EXPECT_EQ(full.kind, AtomicReadChoice::Kind::kVersion);
    EXPECT_EQ(paged.version, older_.front()->id);
    EXPECT_EQ(full.version, older_.front()->id);
    EXPECT_EQ(paged.candidates_examined + 1, full.candidates_examined);

    // Removed after its page was read instead: the page still lists it, the
    // lookup fails, and the walk matches the full-list walk exactly.
    index_.AddCommit(*removed);
    const AtomicReadChoice late = SelectAtomicReadVersion("k", read_set_, index_, commits_);
    EXPECT_EQ(late.version, full.version);
    EXPECT_EQ(late.candidates_examined, full.candidates_examined);
  }

  ReadSet read_set_;
  std::vector<CommitRecordPtr> older_;  // Ascending.
};

TEST_F(PageBoundaryTest, ExactlyOnePageRejected) {
  Build(kPage, 2);
  const AtomicReadChoice choice = ExpectSameAsFullList("k", read_set_);
  ASSERT_EQ(choice.kind, AtomicReadChoice::Kind::kVersion);
  EXPECT_EQ(choice.version, older_.back()->id);
  EXPECT_EQ(choice.candidates_examined, kPage + 1);
}

TEST_F(PageBoundaryTest, OnePagePlusOneRejected) {
  Build(kPage + 1, 2);
  const AtomicReadChoice choice = ExpectSameAsFullList("k", read_set_);
  ASSERT_EQ(choice.kind, AtomicReadChoice::Kind::kVersion);
  EXPECT_EQ(choice.version, older_.back()->id);
  EXPECT_EQ(choice.candidates_examined, kPage + 2);
}

TEST_F(PageBoundaryTest, EveryCandidateRejectedAcrossPages) {
  Build(2 * kPage, 0);
  const AtomicReadChoice choice = ExpectSameAsFullList("k", read_set_);
  EXPECT_EQ(choice.kind, AtomicReadChoice::Kind::kNullVersion);
  EXPECT_EQ(choice.candidates_examined, 2 * kPage);
}

TEST_F(PageBoundaryTest, VersionRemovedBetweenPagesAfterOneRejectedPage) {
  ExpectRemovalBetweenPagesIsSkipped(kPage);
}

TEST_F(PageBoundaryTest, VersionRemovedBetweenPagesAfterOnePagePlusOne) {
  ExpectRemovalBetweenPagesIsSkipped(kPage + 1);
}

// ---- Algorithm 2 -----------------------------------------------------------------

TEST(SupersedenceTest, NotSupersededWhenLatestForAnyKey) {
  Rng rng(7);
  KeyVersionIndex index;
  CommitRecord r1{TxnId(10, Uuid::Random(rng)), {"k", "l"}};
  index.AddCommit(r1);
  EXPECT_FALSE(IsTransactionSuperseded(r1, index));

  CommitRecord r2{TxnId(20, Uuid::Random(rng)), {"k"}};
  index.AddCommit(r2);
  // l still has no newer version.
  EXPECT_FALSE(IsTransactionSuperseded(r1, index));

  CommitRecord r3{TxnId(30, Uuid::Random(rng)), {"l"}};
  index.AddCommit(r3);
  EXPECT_TRUE(IsTransactionSuperseded(r1, index));
  EXPECT_FALSE(IsTransactionSuperseded(r3, index));
}

TEST(SupersedenceTest, EmptyWriteSetIsVacuouslySuperseded) {
  KeyVersionIndex index;
  Rng rng(11);
  CommitRecord read_only{TxnId(10, Uuid::Random(rng)), {}};
  EXPECT_TRUE(IsTransactionSuperseded(read_only, index));
}

TEST(SupersedenceTest, UnmergedRemoteRecordNewerThanLocalIsNotSuperseded) {
  // The generalized form: a record NEWER than everything local must not be
  // treated as superseded (the paper's latest==i formulation assumes the
  // record was already merged).
  Rng rng(13);
  KeyVersionIndex index;
  CommitRecord local{TxnId(10, Uuid::Random(rng)), {"k"}};
  index.AddCommit(local);
  CommitRecord remote{TxnId(99, Uuid::Random(rng)), {"k"}};
  EXPECT_FALSE(IsTransactionSuperseded(remote, index));
}

}  // namespace
}  // namespace aft
