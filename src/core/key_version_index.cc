#include "src/core/key_version_index.h"

#include <algorithm>

namespace aft {

void KeyVersionIndex::AddCommit(const CommitRecord& record) {
  WriterMutexLock lock(mu_);
  auto [self, inserted] = tracked_.try_emplace(record.id);
  if (!inserted) {
    return;  // Idempotent re-add (gossip duplicates).
  }
  Tracked* const tracked = &self->second;
  for (const std::string& key : record.write_set) {
    VersionList& list = versions_[interner_.Intern(key)];
    if (list.empty() || list.back().id < record.id) {
      // Common case: commit IDs arrive in order, and the new version
      // displaces the key's previous newest.
      if (!list.empty()) {
        Displace(list.back());
      }
      list.push_back(Version{record.id, tracked});
      ++tracked->newest_on;
      continue;
    }
    auto it = std::lower_bound(list.begin(), list.end(), record.id, IdBelow);
    if (it != list.end() && it->id == record.id) {
      continue;  // The key appears twice in the write set.
    }
    list.insert(it, Version{record.id, tracked});  // Behind the newest: not current here.
  }
  if (tracked->newest_on == 0) {
    tracked->queued = true;
    superseded_.push_back(record.id);
  }
}

void KeyVersionIndex::Displace(const Version& version) {
  Tracked& writer = *version.writer;
  if (writer.newest_on > 0 && --writer.newest_on == 0 && !writer.queued) {
    writer.queued = true;
    superseded_.push_back(version.id);
  }
}

void KeyVersionIndex::RemoveCommit(const CommitRecord& record) {
  WriterMutexLock lock(mu_);
  auto self = tracked_.find(record.id);
  if (self == tracked_.end()) {
    return;  // Not indexed (or already removed).
  }
  for (const std::string& key : record.write_set) {
    auto it = versions_.find(std::string_view(key));
    if (it == versions_.end()) {
      continue;
    }
    VersionList& list = it->second;
    auto pos = std::lower_bound(list.begin(), list.end(), record.id, IdBelow);
    if (pos == list.end() || pos->id != record.id) {
      continue;
    }
    const bool was_newest = pos + 1 == list.end();
    list.erase(pos);
    if (list.empty()) {
      // The interned key string stays behind (bounded by distinct key names);
      // a later re-add of this key reuses it without allocating.
      versions_.erase(it);
    } else if (was_newest) {
      ++list.back().writer->newest_on;  // The next-newest is current here again.
    }
  }
  tracked_.erase(self);
}

bool KeyVersionIndex::IsSuperseded(const TxnId& id) const {
  ReaderMutexLock lock(mu_);
  auto it = tracked_.find(id);
  return it != tracked_.end() && it->second.newest_on == 0;
}

void KeyVersionIndex::TakeSuperseded(std::vector<TxnId>* out) {
  WriterMutexLock lock(mu_);
  for (const TxnId& id : superseded_) {
    auto it = tracked_.find(id);
    // A stale entry: the record was removed, or removed and re-added (its
    // fresh state is queued again if need be), or is already handed out.
    if (it == tracked_.end() || !it->second.queued) {
      continue;
    }
    it->second.queued = false;
    if (it->second.newest_on == 0) {
      out->push_back(id);
    }
  }
  superseded_.clear();
}

TxnId KeyVersionIndex::LatestVersion(const std::string& key) const {
  ReaderMutexLock lock(mu_);
  auto it = versions_.find(std::string_view(key));
  if (it == versions_.end() || it->second.empty()) {
    return TxnId::Null();
  }
  return it->second.back().id;
}

KeyVersionIndex::CandidatePage KeyVersionIndex::CandidatesBelow(const std::string& key,
                                                                const TxnId& lower,
                                                                const TxnId& below) const {
  ReaderMutexLock lock(mu_);
  CandidatePage page;
  auto it = versions_.find(std::string_view(key));
  if (it == versions_.end()) {
    return page;
  }
  // Newest first (Algorithm 1 iterates in reverse timestamp order); the list
  // is sorted ascending, so walk down from the cursor.
  const VersionList& list = it->second;
  auto end = below.IsNull() ? list.end() : std::lower_bound(list.begin(), list.end(), below, IdBelow);
  while (end != list.begin() && page.size() < kCandidatePage) {
    --end;
    if (end->id < lower) {
      break;
    }
    page.push_back(end->id);
  }
  return page;
}

size_t KeyVersionIndex::TotalVersionCount() const {
  ReaderMutexLock lock(mu_);
  size_t total = 0;
  for (const auto& [key, list] : versions_) {
    total += list.size();
  }
  return total;
}

size_t KeyVersionIndex::KeyCount() const {
  ReaderMutexLock lock(mu_);
  return versions_.size();
}

}  // namespace aft
