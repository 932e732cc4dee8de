#include "src/core/commit_set_cache.h"

namespace aft {

bool CommitSetCache::Add(CommitRecordPtr record) {
  const TxnId id = record->id;
  Shard& shard = ShardFor(id);
  WriterMutexLock lock(shard.mu);
  return shard.records.emplace(id, std::move(record)).second;
}

void CommitSetCache::Remove(const TxnId& id) {
  Shard& shard = ShardFor(id);
  WriterMutexLock lock(shard.mu);
  if (shard.records.erase(id) > 0) {
    shard.locally_deleted.insert(id);
  }
}

CommitRecordPtr CommitSetCache::Lookup(const TxnId& id) const {
  const Shard& shard = ShardFor(id);
  ReaderMutexLock lock(shard.mu);
  auto it = shard.records.find(id);
  if (it == shard.records.end()) {
    lookup_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lookup_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

bool CommitSetCache::Contains(const TxnId& id) const {
  const Shard& shard = ShardFor(id);
  ReaderMutexLock lock(shard.mu);
  return shard.records.contains(id);
}

bool CommitSetCache::HasLocallyDeleted(const TxnId& id) const {
  const Shard& shard = ShardFor(id);
  ReaderMutexLock lock(shard.mu);
  return shard.locally_deleted.contains(id);
}

void CommitSetCache::ForgetLocallyDeleted(const TxnId& id) {
  Shard& shard = ShardFor(id);
  WriterMutexLock lock(shard.mu);
  shard.locally_deleted.erase(id);
}

size_t CommitSetCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    ReaderMutexLock lock(shard.mu);
    total += shard.records.size();
  }
  return total;
}

size_t CommitSetCache::ShardSize(size_t i) const {
  const Shard& shard = shards_[i % kNumShards];
  ReaderMutexLock lock(shard.mu);
  return shard.records.size();
}

}  // namespace aft
