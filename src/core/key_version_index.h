// In-memory index from each key to the recently committed versions of that
// key (§3.1). Backs Algorithm 1's candidate enumeration and Algorithm 2's
// latest-version lookups. Thread-safe; read-mostly (shared_mutex).
//
// Algorithm 1 reads the candidates a page at a time (CandidatesBelow), so a
// read costs the versions it examines — almost always the newest one — not
// the length of the key's history.
//
// The index is also the one supersedence tracker (Algorithm 2, §4.1, §5).
// For each indexed record it counts the keys on which that record is still
// the newest version. Indexing a newer version of a key decrements the count
// of the version it displaces; removing a key's newest version credits the
// next-newest one. A record whose count reaches zero — including one indexed
// behind the newest version on every key, or one with an empty write set —
// is pushed onto a superseded queue. IsSuperseded is then an O(1) lookup,
// and the garbage collectors drain the queue instead of re-checking every
// record, so a GC round costs what it collects. A record is queued only
// after it is indexed, so no collector can see a record whose versions are
// still on their way into the index.

#ifndef SRC_CORE_KEY_VERSION_INDEX_H_
#define SRC_CORE_KEY_VERSION_INDEX_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/interner.h"
#include "src/common/mutex.h"
#include "src/common/pool_allocator.h"
#include "src/common/small_vector.h"
#include "src/core/records.h"
#include "src/core/txn_id.h"

namespace aft {

class KeyVersionIndex {
 public:
  KeyVersionIndex() = default;

  // Registers every key version written by the committed transaction and
  // starts tracking its supersedence. Re-adding an indexed record is a no-op
  // (gossip duplicates).
  void AddCommit(const CommitRecord& record);

  // Removes the transaction's versions (metadata GC, §5.1) and stops
  // tracking it.
  void RemoveCommit(const CommitRecord& record);

  // Algorithm 2 for an indexed record: every key it wrote has a newer
  // indexed version. False for a record that is not indexed. O(1).
  bool IsSuperseded(const TxnId& id) const;

  // Appends to `out` every record that became superseded since the last
  // call, in the order they did, and empties the queue. A record that a
  // later AddCommit/RemoveCommit made current again, or that was removed, is
  // left out; one that becomes superseded again is queued again. Callers
  // that cannot collect a drained record yet keep it themselves.
  void TakeSuperseded(std::vector<TxnId>* out);

  // The newest committed version of `key`, or Null() if none is known.
  TxnId LatestVersion(const std::string& key) const;

  // One page of Algorithm 1's candidate list (line 11): up to
  // kCandidatePage versions of `key` with lower <= ID < below, newest first.
  // A Null() `below` means no upper bound (the first page); the next page
  // passes the last ID of this one. A page shorter than kCandidatePage is
  // the last. Versions added or removed between pages are simply seen or
  // not by the later page — each page is consistent on its own.
  static constexpr size_t kCandidatePage = 4;
  using CandidatePage = SmallVector<TxnId, kCandidatePage>;
  CandidatePage CandidatesBelow(const std::string& key, const TxnId& lower,
                                const TxnId& below) const;

  size_t TotalVersionCount() const;
  size_t KeyCount() const;

 private:
  // Supersedence state of one indexed record.
  struct Tracked {
    uint32_t newest_on = 0;  // Keys on which this record is the newest version.
    bool queued = false;     // On superseded_ and not yet drained.
  };
  using TrackedMap =
      std::unordered_map<TxnId, Tracked, std::hash<TxnId>, std::equal_to<TxnId>,
                         PoolAllocator<std::pair<const TxnId, Tracked>>>;

  // One indexed version of a key. `writer` points at the writing record's
  // entry in tracked_ (map nodes never move), so displacing a key's newest
  // version costs no lookup.
  struct Version {
    TxnId id;
    Tracked* writer;
  };
  static bool IdBelow(const Version& version, const TxnId& id) { return version.id < id; }

  // Version lists are kept sorted ascending by TxnId. Commit timestamps are
  // (mostly) monotone, so AddCommit is an amortized push_back; readers walk
  // from the upper end for the newest-first candidate order. Up to four
  // versions live inline in the map node — the common steady-state depth
  // once GC is running.
  using VersionList = SmallVector<Version, 4>;
  using VersionMap =
      std::unordered_map<std::string_view, VersionList, std::hash<std::string_view>,
                         std::equal_to<std::string_view>,
                         PoolAllocator<std::pair<const std::string_view, VersionList>>>;

  // `version` stopped being its key's newest; queue its writer if that was
  // the writer's last key.
  void Displace(const Version& version) REQUIRES(mu_);

  mutable SharedMutex mu_;
  // Hot key names are interned once; every commit of the same key after the
  // first allocates nothing for the map key. The interner only grows (its
  // size is bounded by the workload's distinct key names), so views stay
  // valid across RemoveCommit/AddCommit churn.
  KeyInterner interner_ GUARDED_BY(mu_);
  VersionMap versions_ GUARDED_BY(mu_);
  TrackedMap tracked_ GUARDED_BY(mu_);
  // Drained by appending into the caller's buffer, so the queue keeps its
  // capacity and a commit never allocates for it at steady state.
  std::vector<TxnId> superseded_ GUARDED_BY(mu_);
};

}  // namespace aft

#endif  // SRC_CORE_KEY_VERSION_INDEX_H_
