// Reference counts of committed transactions currently being read by running
// transactions. The garbage collectors (§5.1, §5.2) must not drop a
// transaction's metadata/data while some running transaction has read from
// its write set; scanning every running transaction per GC candidate would
// serialize against in-flight storage IO, so the node maintains this O(1)
// side table instead: pinned on a transaction's first read of a version,
// unpinned when the reading transaction commits or aborts.

#ifndef SRC_CORE_READ_PIN_TABLE_H_
#define SRC_CORE_READ_PIN_TABLE_H_

#include <unordered_map>

#include "src/common/mutex.h"
#include "src/core/txn_id.h"

namespace aft {

class ReadPinTable {
 public:
  ReadPinTable() = default;

  void Pin(const TxnId& id) {
    MutexLock lock(mu_);
    ++pins_[id];
  }

  // True when this released the last pin on `id`.
  bool Unpin(const TxnId& id) {
    MutexLock lock(mu_);
    auto it = pins_.find(id);
    if (it == pins_.end() || --it->second > 0) {
      return false;
    }
    pins_.erase(it);
    return true;
  }

  bool IsPinned(const TxnId& id) const {
    MutexLock lock(mu_);
    return pins_.contains(id);
  }

  size_t size() const {
    MutexLock lock(mu_);
    return pins_.size();
  }

 private:
  mutable Mutex mu_;
  std::unordered_map<TxnId, int> pins_ GUARDED_BY(mu_);
};

}  // namespace aft

#endif  // SRC_CORE_READ_PIN_TABLE_H_
