// In-memory index from each key to the recently committed versions of that
// key (§3.1). Backs Algorithm 1's candidate enumeration and Algorithm 2's
// latest-version lookups. Thread-safe; read-mostly (shared_mutex).
//
// Algorithm 1 reads the candidates a page at a time (CandidatesBelow), so a
// read costs the versions it examines — almost always the newest one — not
// the length of the key's history.

#ifndef SRC_CORE_KEY_VERSION_INDEX_H_
#define SRC_CORE_KEY_VERSION_INDEX_H_

#include <string>
#include <string_view>
#include <unordered_map>

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

  // Registers every key version written by the committed transaction.
  void AddCommit(const CommitRecord& record);

  // Removes the transaction's versions (local metadata GC, §5.1).
  void RemoveCommit(const CommitRecord& record);

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

  // True if `id` is still indexed for `key`.
  bool Contains(const std::string& key, const TxnId& id) const;

  size_t TotalVersionCount() const;
  size_t KeyCount() const;

 private:
  // Version lists are kept sorted ascending by TxnId. Commit timestamps are
  // (mostly) monotone, so AddCommit is an amortized push_back; readers walk
  // from the upper end for the newest-first candidate order. Up to four
  // versions live inline in the map node — the common steady-state depth
  // once GC is running.
  using VersionList = SmallVector<TxnId, 4>;
  using VersionMap =
      std::unordered_map<std::string_view, VersionList, std::hash<std::string_view>,
                         std::equal_to<std::string_view>,
                         PoolAllocator<std::pair<const std::string_view, VersionList>>>;

  mutable SharedMutex mu_;
  // Hot key names are interned once; every commit of the same key after the
  // first allocates nothing for the map key. The interner only grows (its
  // size is bounded by the workload's distinct key names), so views stay
  // valid across RemoveCommit/AddCommit churn.
  KeyInterner interner_ GUARDED_BY(mu_);
  VersionMap versions_ GUARDED_BY(mu_);
};

}  // namespace aft

#endif  // SRC_CORE_KEY_VERSION_INDEX_H_
