// A forwarding view of a storage engine with a chosen request-pool size.
//
// The commit batcher reads K, the number of storage rounds it may run at
// once, from StorageEngine::MaxConcurrentRequests. PoolViewEngine forwards
// every call to the engine it wraps but reports its own K, so a test can
// run any queue policy over any engine — the unbounded one over the local
// WAL engine, say, which reports one round at a time. It also counts how
// many CommitUnits calls — batcher rounds — overlap at most, and can hold
// chosen rounds open at the storage boundary until the test releases them.

#ifndef TESTS_POOL_VIEW_ENGINE_H_
#define TESTS_POOL_VIEW_ENGINE_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <span>

#include "src/storage/storage_engine.h"
#include "tests/forwarding_engine.h"

namespace aft {

class PoolViewEngine final : public ForwardingEngine {
 public:
  PoolViewEngine(StorageEngine& inner, size_t max_concurrent_requests)
      : ForwardingEngine(inner), max_concurrent_requests_(max_concurrent_requests) {}

  // The next `n` CommitUnits calls block at entry — already counted as in
  // flight — until Release().
  void Hold(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    to_hold_ = n;
    released_ = false;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  // Blocks until at least `n` CommitUnits calls are in flight.
  void AwaitInFlight(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return in_flight_ >= n; });
  }
  size_t max_overlap() {
    std::lock_guard<std::mutex> lock(mu_);
    return max_overlap_;
  }

  void CommitUnits(std::span<CommitUnit> units, std::span<Status> results,
                   CommitStageProfile* profile = nullptr) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++in_flight_;
      max_overlap_ = std::max(max_overlap_, in_flight_);
      cv_.notify_all();
      if (to_hold_ > 0) {
        --to_hold_;
        cv_.wait(lock, [&] { return released_; });
      }
    }
    inner_.CommitUnits(units, results, profile);
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
  }

  size_t MaxConcurrentRequests() const override { return max_concurrent_requests_; }

 private:
  const size_t max_concurrent_requests_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t to_hold_ = 0;
  bool released_ = false;
  size_t in_flight_ = 0;
  size_t max_overlap_ = 0;
};

}  // namespace aft

#endif  // TESTS_POOL_VIEW_ENGINE_H_
