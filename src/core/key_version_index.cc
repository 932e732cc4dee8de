#include "src/core/key_version_index.h"

#include <algorithm>

namespace aft {

void KeyVersionIndex::AddCommit(const CommitRecord& record) {
  WriterMutexLock lock(mu_);
  for (const std::string& key : record.write_set) {
    VersionList& list = versions_[interner_.Intern(key)];
    if (list.empty() || list.back() < record.id) {
      list.push_back(record.id);  // Common case: commit IDs arrive in order.
      continue;
    }
    auto it = std::lower_bound(list.begin(), list.end(), record.id);
    if (it != list.end() && *it == record.id) {
      continue;  // Idempotent re-add (gossip duplicates).
    }
    list.insert(it, record.id);
  }
}

void KeyVersionIndex::RemoveCommit(const CommitRecord& record) {
  WriterMutexLock lock(mu_);
  for (const std::string& key : record.write_set) {
    auto it = versions_.find(std::string_view(key));
    if (it == versions_.end()) {
      continue;
    }
    auto pos = std::lower_bound(it->second.begin(), it->second.end(), record.id);
    if (pos != it->second.end() && *pos == record.id) {
      it->second.erase(pos);
    }
    if (it->second.empty()) {
      // The interned key string stays behind (bounded by distinct key names);
      // a later re-add of this key reuses it without allocating.
      versions_.erase(it);
    }
  }
}

TxnId KeyVersionIndex::LatestVersion(const std::string& key) const {
  ReaderMutexLock lock(mu_);
  auto it = versions_.find(std::string_view(key));
  if (it == versions_.end() || it->second.empty()) {
    return TxnId::Null();
  }
  return it->second.back();
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
  auto end = below.IsNull() ? list.end() : std::lower_bound(list.begin(), list.end(), below);
  while (end != list.begin() && page.size() < kCandidatePage) {
    --end;
    if (*end < lower) {
      break;
    }
    page.push_back(*end);
  }
  return page;
}

bool KeyVersionIndex::Contains(const std::string& key, const TxnId& id) const {
  ReaderMutexLock lock(mu_);
  auto it = versions_.find(std::string_view(key));
  return it != versions_.end() && std::binary_search(it->second.begin(), it->second.end(), id);
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
