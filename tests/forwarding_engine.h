// A storage engine that forwards every call to the engine it wraps.
//
// The test decorators (CrashEngine, PoolViewEngine) derive from it and
// override only the calls they change, so a new StorageEngine method needs
// forwarding in one place.

#ifndef TESTS_FORWARDING_ENGINE_H_
#define TESTS_FORWARDING_ENGINE_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/storage/storage_engine.h"

namespace aft {

class ForwardingEngine : public StorageEngine {
 public:
  explicit ForwardingEngine(StorageEngine& inner) : inner_(inner) {}

  Result<std::string> Get(const std::string& key) override { return inner_.Get(key); }
  Result<std::string> GetRange(const std::string& key, uint64_t offset,
                               uint64_t length) override {
    return inner_.GetRange(key, offset, length);
  }
  std::vector<Result<std::string>> MultiGet(std::span<const std::string> keys) override {
    return inner_.MultiGet(keys);
  }
  Status Put(std::string key, std::string value) override {
    return inner_.Put(std::move(key), std::move(value));
  }
  Status BatchPut(std::span<const WriteOp> ops) override { return inner_.BatchPut(ops); }
  Status BatchPutConsume(std::span<WriteOp> ops) override { return inner_.BatchPutConsume(ops); }
  void BatchPutEach(std::span<WriteOp> ops, std::span<Status> statuses) override {
    inner_.BatchPutEach(ops, statuses);
  }
  void CommitUnits(std::span<CommitUnit> units, std::span<Status> results,
                   CommitStageProfile* profile = nullptr) override {
    inner_.CommitUnits(units, results, profile);
  }
  Status Delete(const std::string& key) override { return inner_.Delete(key); }
  Status BatchDelete(std::span<const std::string> keys) override {
    return inner_.BatchDelete(keys);
  }
  Result<std::vector<std::string>> List(const std::string& prefix) override {
    return inner_.List(prefix);
  }
  std::string_view name() const override { return inner_.name(); }
  bool SupportsBatchPut() const override { return inner_.SupportsBatchPut(); }
  size_t MaxBatchSize() const override { return inner_.MaxBatchSize(); }
  double client_cpu_factor() const override { return inner_.client_cpu_factor(); }
  size_t MaxConcurrentRequests() const override { return inner_.MaxConcurrentRequests(); }
  const StorageCounters& counters() const override { return inner_.counters(); }

 protected:
  StorageEngine& inner_;
};

}  // namespace aft

#endif  // TESTS_FORWARDING_ENGINE_H_
