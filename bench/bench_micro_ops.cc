// Microbenchmarks (google-benchmark) for AFT's hot-path primitives: the
// Algorithm 1 version-selection loop, supersedence checks, record and key
// codecs, the key version index, GC rounds, the Zipf sampler and the CRC-32
// that every wire frame and WAL record carries. These quantify the per-op
// CPU cost that underlies the node service-time model.
//
// With AFT_BENCH_JSON set, every repetition of BM_GcRoundNoVictims is also
// written as a "gc round <node|fm> <records>" row for tools/bench_gate.sh.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <utility>

#include "bench/bench_common.h"
#include "src/cluster/deployment.h"
#include "src/common/crc32.h"
#include "src/common/zipf.h"
#include "src/core/read_algorithm.h"
#include "src/storage/sim_redis.h"

namespace aft {
namespace {

CommitRecordPtr MakeRecord(Rng& rng, int64_t ts, std::vector<std::string> keys) {
  return std::make_shared<const CommitRecord>(CommitRecord{TxnId(ts, Uuid::Random(rng)), keys});
}

// Algorithm 1 with a configurable number of versions per key and read-set size.
void BM_AtomicReadSelect(benchmark::State& state) {
  const int versions = static_cast<int>(state.range(0));
  const int read_set_size = static_cast<int>(state.range(1));
  Rng rng(1);
  KeyVersionIndex index;
  CommitSetCache commits;
  // `versions` committed versions of the target key, each cowriting 3 keys.
  for (int v = 1; v <= versions; ++v) {
    auto record = MakeRecord(rng, v * 10,
                             {"target", "a" + std::to_string(v % 5), "b" + std::to_string(v % 7)});
    commits.Add(record);
    index.AddCommit(*record);
  }
  std::unordered_map<std::string, ReadSetEntry> read_set;
  for (int i = 0; i < read_set_size; ++i) {
    auto record = MakeRecord(rng, 5, {"r" + std::to_string(i)});
    commits.Add(record);
    index.AddCommit(*record);
    read_set["r" + std::to_string(i)] = ReadSetEntry{record->id, record};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectAtomicReadVersion("target", read_set, index, commits));
  }
}
BENCHMARK(BM_AtomicReadSelect)
    ->Args({1, 0})
    ->Args({8, 4})
    ->Args({64, 16})
    ->Args({256, 64})
    ->Args({16384, 0});

// Algorithm 2 through the index's supersedence tracker: one lookup,
// whatever the write-set size.
void BM_IsSuperseded(benchmark::State& state) {
  Rng rng(2);
  KeyVersionIndex index;
  std::vector<std::string> keys;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    keys.push_back("k" + std::to_string(i));
  }
  CommitRecord old_record{TxnId(10, Uuid::Random(rng)), keys};
  index.AddCommit(old_record);
  CommitRecord new_record{TxnId(20, Uuid::Random(rng)), keys};
  index.AddCommit(new_record);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.IsSuperseded(old_record.id));
  }
}
BENCHMARK(BM_IsSuperseded)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The key codecs: every read and commit builds a version key, and the fault
// manager's scans parse every listed commit and version key.
void BM_UuidAppendTo(benchmark::State& state) {
  Rng rng(8);
  const Uuid uuid = Uuid::Random(rng);
  std::string out;
  for (auto _ : state) {
    out.clear();
    uuid.AppendTo(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_UuidAppendTo);

void BM_UuidParse(benchmark::State& state) {
  Rng rng(9);
  const std::string text = Uuid::Random(rng).ToString();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Uuid::Parse(text));
  }
}
BENCHMARK(BM_UuidParse);

void BM_TxnIdEncodeTo(benchmark::State& state) {
  Rng rng(10);
  const TxnId id(1726000000000000, Uuid::Random(rng));
  std::string out;
  for (auto _ : state) {
    out.clear();
    id.EncodeTo(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TxnIdEncodeTo);

void BM_TxnIdDecode(benchmark::State& state) {
  Rng rng(11);
  const std::string text = TxnId(1726000000000000, Uuid::Random(rng)).Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TxnId::Decode(text));
  }
}
BENCHMARK(BM_TxnIdDecode);

void BM_VersionStorageKey(benchmark::State& state) {
  Rng rng(12);
  const Uuid writer = Uuid::Random(rng);
  const std::string key = "key" + std::to_string(rng.Below(1000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(VersionStorageKey(key, writer));
  }
}
BENCHMARK(BM_VersionStorageKey);

void BM_CommitRecordRoundTrip(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::string> keys;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    keys.push_back("key" + std::to_string(i));
  }
  const CommitRecord record{TxnId(123456789, Uuid::Random(rng)), keys};
  for (auto _ : state) {
    const std::string bytes = record.Serialize();
    benchmark::DoNotOptimize(CommitRecord::Deserialize(bytes));
  }
}
BENCHMARK(BM_CommitRecordRoundTrip)->Arg(1)->Arg(8)->Arg(32);

void BM_VersionedValueRoundTrip(benchmark::State& state) {
  Rng rng(4);
  const VersionedValue value{TxnId(1, Uuid::Random(rng)),
                             {"k1", "k2", "k3"},
                             std::string(static_cast<size_t>(state.range(0)), 'x')};
  for (auto _ : state) {
    const std::string bytes = value.Serialize();
    benchmark::DoNotOptimize(VersionedValue::Deserialize(bytes));
  }
}
BENCHMARK(BM_VersionedValueRoundTrip)->Arg(256)->Arg(4096)->Arg(65536);

void BM_KeyVersionIndexAdd(benchmark::State& state) {
  Rng rng(5);
  int64_t ts = 1;
  KeyVersionIndex index;
  for (auto _ : state) {
    CommitRecord record{TxnId(ts++, Uuid::Random(rng)),
                        {"a" + std::to_string(ts % 100), "b" + std::to_string(ts % 37)}};
    index.AddCommit(record);
  }
}
BENCHMARK(BM_KeyVersionIndexAdd);

// A one-node in-process cluster over a zero-latency store whose node and
// fault manager both hold `records` commit records, one round of the
// measured GC run once so that the measured rounds find nothing new. In the
// node fixture every record is the newest version of its own key (all
// live). In the fault-manager fixture every other record is superseded; the
// node runs no local GC, so it still holds those and vetoes each one, and
// they wait in the manager's awaiting list. Either way a round deletes
// nothing, and its cost must not grow with the commit set.
enum GcRound : int64_t { kNodeRound = 0, kFaultManagerRound = 1 };

struct GcFixture {
  GcFixture(GcRound round, size_t records) : engine(clock, InstantRedis()) {
    Rng rng(13);
    std::vector<CommitRecordPtr> written;
    written.reserve(records);
    for (size_t i = 0; i < records; ++i) {
      const size_t key = round == kNodeRound ? i : i / 2;
      auto record = std::make_shared<const CommitRecord>(CommitRecord{
          TxnId(static_cast<int64_t>(i) + 1, Uuid::Random(rng)), {"k" + std::to_string(key)}});
      engine.DirectPut(CommitStorageKey(record->id), record->Serialize());
      written.push_back(std::move(record));
    }
    ClusterOptions options;
    options.start_background_threads = false;
    options.node_options.bootstrap_commit_limit = records;
    cluster = std::make_unique<ClusterDeployment>(engine, clock, options);
    if (!cluster->Start().ok()) {
      std::abort();
    }
    FaultManager& fault_manager = cluster->fault_manager();
    fault_manager.IngestCommits(written);
    if (round == kNodeRound) {
      (void)cluster->node(0)->RunLocalGcOnce();
    } else if (fault_manager.RunGlobalGcOnce() != 0 ||
               fault_manager.stats().gc_votes.load() != records / 2) {
      std::abort();  // The node must veto every superseded record.
    }
  }

  static SimRedisOptions InstantRedis() {
    SimRedisOptions options;
    options.profile = EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(),
                                           LatencyModel::Zero(), LatencyModel::Zero(),
                                           LatencyModel::Zero(), LatencyModel::Zero()};
    return options;
  }

  SimClock clock;
  SimRedis engine;
  std::unique_ptr<ClusterDeployment> cluster;
};

// The last fixture is kept: google-benchmark calls the function several
// times per argument pair while it sizes the iteration count. One fixture
// alive at a time keeps memory small.
GcFixture& GcFixtureFor(GcRound round, size_t records) {
  static std::pair<GcRound, size_t> built;
  static std::unique_ptr<GcFixture> fixture;
  if (fixture == nullptr || built != std::make_pair(round, records)) {
    fixture.reset();
    fixture = std::make_unique<GcFixture>(round, records);
    built = {round, records};
  }
  return *fixture;
}

void BM_GcRoundNoVictims(benchmark::State& state) {
  const auto round = static_cast<GcRound>(state.range(0));
  const auto records = static_cast<size_t>(state.range(1));
  GcFixture& fixture = GcFixtureFor(round, records);
  AftNode& node = *fixture.cluster->node(0);
  FaultManager& fault_manager = fixture.cluster->fault_manager();
  size_t deleted = 0;
  for (auto _ : state) {
    deleted += round == kNodeRound ? node.RunLocalGcOnce() : fault_manager.RunGlobalGcOnce();
  }
  if (deleted != 0) {
    state.SkipWithError("a no-victim GC round deleted records");
  }
  state.SetLabel(std::string(round == kNodeRound ? "node " : "fm ") + std::to_string(records));
}
BENCHMARK(BM_GcRoundNoVictims)
    ->ArgsProduct({{kNodeRound, kFaultManagerRound}, {1000, 100000}})
    ->Repetitions(3)
    ->Unit(benchmark::kMicrosecond);

// Console output as usual, plus one JSON row per BM_GcRoundNoVictims
// repetition: txn_per_s carries rounds per second (what the gate reads),
// p50_ms and p99_ms the mean round time.
class GcRowReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.benchmark_name().rfind("BM_GcRoundNoVictims", 0) != 0) {
        continue;
      }
      const double round_ms =
          run.GetAdjustedRealTime() / benchmark::GetTimeUnitMultiplier(run.time_unit) * 1e3;
      bench::EmitJsonRow("micro_ops", "gc round " + run.report_label, round_ms, round_ms,
                         round_ms > 0 ? 1e3 / round_ms : 0,
                         static_cast<uint64_t>(run.iterations));
    }
  }
};

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(6);
  ZipfSampler zipf(100000, static_cast<double>(state.range(0)) / 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(0)->Arg(10)->Arg(15)->Arg(20);

// Checksum throughput at a small frame, the 4 KiB value of the tcp-mem
// workload, and a large batch.
void BM_Crc32(benchmark::State& state) {
  Rng rng(7);
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  for (char& c : data) {
    c = static_cast<char>(rng.Below(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace aft

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  aft::GcRowReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
