// Local cache of committed-transaction metadata (the Commit Set Cache, §3.1).
//
// Maps transaction IDs to their commit records. Records are shared_ptr so a
// running transaction can pin the cowritten sets of versions it has read even
// if the GC drops them from the cache concurrently. Also tracks the set of
// locally GC-deleted transaction IDs the global GC asks about (§5.2).
//
// Concurrency: the record map and the locally-deleted set are split into K
// lock-striped shards hashed by TxnId, so the per-key lookups Algorithm 1
// issues on every read no longer serialize on one global lock against the
// commit path's inserts. The visibility contract is unchanged: callers only
// Add() a record AFTER its commit record has persisted in storage (§3.3's
// write-ordering barrier / §3.4), so a transaction becomes visible in this
// index — on whichever shard it hashes to — only once it is durable.

#ifndef SRC_CORE_COMMIT_SET_CACHE_H_
#define SRC_CORE_COMMIT_SET_CACHE_H_

#include <array>
#include <atomic>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "src/common/mutex.h"
#include "src/common/pool_allocator.h"
#include "src/core/records.h"
#include "src/core/txn_id.h"

namespace aft {

using CommitRecordPtr = std::shared_ptr<const CommitRecord>;

class CommitSetCache {
 public:
  // Shard count: enough stripes that 16+ service threads rarely collide,
  // small enough that size() sweeps stay cheap.
  static constexpr size_t kNumShards = 16;

  CommitSetCache() = default;

  // Inserts a record; returns false if it was already present.
  bool Add(CommitRecordPtr record);

  // Removes a record (local metadata GC). The ID is remembered in the
  // locally-deleted set until the global GC acknowledges it.
  void Remove(const TxnId& id);

  CommitRecordPtr Lookup(const TxnId& id) const;
  bool Contains(const TxnId& id) const;

  // ---- Global GC bookkeeping (§5.2) ----------------------------------------
  bool HasLocallyDeleted(const TxnId& id) const;
  // The global GC confirmed deletion; we can forget the tombstone.
  void ForgetLocallyDeleted(const TxnId& id);

  size_t size() const;
  // Records held by shard `i` (i < kNumShards) — exposed per shard so a
  // scrape can spot skewed striping.
  size_t ShardSize(size_t i) const;

  // Lookup outcome counters (Algorithm 1's per-candidate probes): a hit
  // returned a record, a miss found the id GC'd/absent.
  uint64_t lookup_hits() const { return lookup_hits_.load(std::memory_order_relaxed); }
  uint64_t lookup_misses() const { return lookup_misses_.load(std::memory_order_relaxed); }

 private:
  // Pooled nodes: every commit inserts (and GC later erases) one records
  // entry, so at steady state the churn recycles pool blocks instead of
  // allocating per commit.
  struct Shard {
    // One shared site across shards: the profiler ranks the cache as a
    // whole, per-shard series would be noise.
    static contention::ContentionSite* ContentionSiteFor() {
      static contention::ContentionSite* site = contention::LockSite("commit_cache.shard");
      return site;
    }
    mutable SharedMutex mu{ContentionSiteFor()};
    std::unordered_map<TxnId, CommitRecordPtr, std::hash<TxnId>, std::equal_to<TxnId>,
                       PoolAllocator<std::pair<const TxnId, CommitRecordPtr>>>
        records GUARDED_BY(mu);
    std::unordered_set<TxnId, std::hash<TxnId>, std::equal_to<TxnId>, PoolAllocator<TxnId>>
        locally_deleted GUARDED_BY(mu);
  };

  Shard& ShardFor(const TxnId& id) { return shards_[std::hash<TxnId>{}(id) % kNumShards]; }
  const Shard& ShardFor(const TxnId& id) const {
    return shards_[std::hash<TxnId>{}(id) % kNumShards];
  }

  std::array<Shard, kNumShards> shards_;
  mutable std::atomic<uint64_t> lookup_hits_{0};
  mutable std::atomic<uint64_t> lookup_misses_{0};
};

}  // namespace aft

#endif  // SRC_CORE_COMMIT_SET_CACHE_H_
