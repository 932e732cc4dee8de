// Crash injection at the storage boundary of the one commit path.
//
// An AFT node's commit reaches storage only through the batcher's
// StorageEngine::CommitUnits call. CrashEngine decorates the engine a node
// runs on and runs CommitUnits' default two-round sequence over its own
// write methods, one op at a time in order, so it sees every data version
// (or packed segment) and every commit record the round writes. An armed
// crash fires on a chosen write — where its effect on the §3.3 protocol is
// defined — and calls back into the test, which kills the node:
//
//   kVersionWrite      the write of a data version or segment is dropped:
//                      the crash lands before that data is durable.
//   kRecordWrite       the write of a commit record is dropped: data is
//                      durable, the record is not — an invisible orphan.
//   kAfterRecordWrite  the commit record lands, then the crash: the
//                      transaction IS committed though never acknowledged.
//
// From the crash on, every write is dropped with kUnavailable until the
// next Arm — a dead process issues nothing more, including the rest of the
// round it was executing. Reads, lists and deletes pass through, so other
// actors sharing the storage (a fault manager, a recovering node) keep
// working. Every other call forwards to the wrapped engine.

#ifndef TESTS_CRASH_ENGINE_H_
#define TESTS_CRASH_ENGINE_H_

#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "src/core/records.h"
#include "src/storage/storage_engine.h"
#include "tests/forwarding_engine.h"

namespace aft {

class CrashEngine final : public ForwardingEngine {
 public:
  enum class At { kVersionWrite, kRecordWrite, kAfterRecordWrite };

  explicit CrashEngine(StorageEngine& inner) : ForwardingEngine(inner) {}

  // Arms one crash: the (skip+1)-th write of the kind `at` names runs
  // `crash`. Re-arming revives the write path.
  void Arm(At at, std::function<void()> crash, int skip = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    at_ = at;
    crash_ = std::move(crash);
    skip_ = skip;
    armed_ = true;
    crashed_ = false;
  }

  // Disarms and revives the write path.
  void Disarm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    crashed_ = false;
  }

  bool crashed() {
    std::lock_guard<std::mutex> lock(mu_);
    return crashed_;
  }

  // Runs before every write, outside the crash bookkeeping — lets a test
  // hold the storage round open while committers pile up behind it.
  void SetWriteHook(std::function<void(const std::string& key)> hook) {
    write_hook_ = std::move(hook);
  }

  Status Put(std::string key, std::string value) override {
    if (write_hook_) {
      write_hook_(key);
    }
    const bool data = key.starts_with(kVersionPrefix) || key.starts_with(kSegmentPrefix);
    const bool record = key.starts_with(kCommitPrefix);
    std::function<void()> crash;
    bool drop = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (crashed_) {
        return Status::Unavailable("writer crashed");
      }
      if (armed_ && (at_ == At::kVersionWrite ? data : record) && skip_-- == 0) {
        armed_ = false;
        crashed_ = true;
        crash = crash_;
        drop = at_ != At::kAfterRecordWrite;
      }
    }
    if (drop) {
      crash();
      return Status::Unavailable("writer crashed");
    }
    Status written = inner_.Put(std::move(key), std::move(value));
    if (crash) {
      crash();
    }
    return written;
  }

  Status BatchPut(std::span<const WriteOp> ops) override {
    Status first;
    for (const WriteOp& op : ops) {
      Status s = Put(op.key, op.value);
      if (first.ok() && !s.ok()) {
        first = std::move(s);
      }
    }
    return first;
  }

  Status BatchPutConsume(std::span<WriteOp> ops) override {
    Status first;
    for (WriteOp& op : ops) {
      Status s = Put(std::move(op.key), std::move(op.value));
      if (first.ok() && !s.ok()) {
        first = std::move(s);
      }
    }
    return first;
  }

  void BatchPutEach(std::span<WriteOp> ops, std::span<Status> statuses) override {
    for (size_t i = 0; i < ops.size(); ++i) {
      statuses[i] = Put(std::move(ops[i].key), std::move(ops[i].value));
    }
  }

  // The default two-round sequence over this engine's own write methods,
  // not the inner engine's CommitUnits, so every write of a round passes Put.
  void CommitUnits(std::span<CommitUnit> units, std::span<Status> results,
                   CommitStageProfile* profile = nullptr) override {
    StorageEngine::CommitUnits(units, results, profile);
  }

 private:
  std::function<void(const std::string&)> write_hook_;  // Set before traffic.
  std::mutex mu_;
  At at_ = At::kVersionWrite;
  std::function<void()> crash_;
  int skip_ = 0;
  bool armed_ = false;
  bool crashed_ = false;
};

}  // namespace aft

#endif  // TESTS_CRASH_ENGINE_H_
