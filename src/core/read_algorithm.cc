#include "src/core/read_algorithm.h"

#include <algorithm>

namespace aft {

AtomicReadChoice SelectAtomicReadVersion(
    const std::string& key, const std::unordered_map<std::string, ReadSetEntry>& read_set,
    const KeyVersionIndex& index, const CommitSetCache& commits) {
  // Lines 1-5: compute the transaction-ID lower bound from prior reads whose
  // cowritten sets include `key`.
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

  // Lines 6-21: walk the candidates (versions of `key` at least as new as
  // `lower`) newest first and take the first that does not conflict with R.
  // The index hands them out a page at a time; the next page is fetched, below
  // the last ID examined, only when every candidate so far was rejected. No
  // index lock is held across the commit-set lookups. An empty walk with no
  // lower bound is lines 6-9: the read observes the NULL version.
  uint32_t examined = 0;
  TxnId below = TxnId::Null();  // Null: the first page has no upper bound.
  for (;;) {
    const KeyVersionIndex::CandidatePage page = index.CandidatesBelow(key, lower, below);
    for (const TxnId& t : page) {
      ++examined;
      CommitRecordPtr record = commits.Lookup(t);
      if (record == nullptr) {
        // Metadata GC'd between the index read and now; we cannot check its
        // cowrites, so skip it (reads get staler, never incorrect).
        continue;
      }
      bool valid = true;
      for (const std::string& cowritten_key : record->write_set) {
        auto it = read_set.find(cowritten_key);
        if (it != read_set.end() && it->second.version < t) {
          // We already read an older version of a key T_t cowrote; returning
          // k_t would mean we should have returned l_t earlier (case 2).
          valid = false;
          break;
        }
      }
      if (valid) {
        return AtomicReadChoice{AtomicReadChoice::Kind::kVersion, t, std::move(record), examined};
      }
    }
    if (page.size() < KeyVersionIndex::kCandidatePage) {
      break;
    }
    below = page.back();
  }

  // Lines 22-23: no valid version. If R places no lower bound on `key`, the
  // NULL version is still consistent (a snapshot from before `key` existed);
  // otherwise the transaction cannot proceed.
  if (lower.IsNull()) {
    return AtomicReadChoice{AtomicReadChoice::Kind::kNullVersion, TxnId::Null(), nullptr,
                            examined};
  }
  return AtomicReadChoice{AtomicReadChoice::Kind::kNoValidVersion, TxnId::Null(), nullptr,
                          examined};
}

std::vector<AtomicReadChoice> PlanAtomicMultiRead(
    std::span<const std::string> keys,
    const std::unordered_map<std::string, ReadSetEntry>& read_set,
    const KeyVersionIndex& index, const CommitSetCache& commits) {
  std::vector<AtomicReadChoice> choices;
  choices.reserve(keys.size());
  std::unordered_map<std::string, ReadSetEntry> working = read_set;
  for (const std::string& key : keys) {
    AtomicReadChoice choice = SelectAtomicReadVersion(key, working, index, commits);
    if (choice.kind == AtomicReadChoice::Kind::kVersion) {
      working[key] = ReadSetEntry{choice.version, choice.record};
    }
    choices.push_back(std::move(choice));
  }
  return choices;
}

bool IsTransactionSuperseded(const CommitRecord& record, const KeyVersionIndex& index) {
  for (const std::string& key : record.write_set) {
    if (index.LatestVersion(key) <= record.id) {
      return false;
    }
  }
  return true;
}

}  // namespace aft
