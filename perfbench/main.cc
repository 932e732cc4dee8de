// aft_perfbench: one run of one benchmark workload.
//
//   aft_perfbench --workload <s3-fig3|tcp-mem|tcp-durable> --seed <n>
//                 --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints the host fingerprint, the correctness checks and every metric with
// its unit and sample count, then, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name:
//    {"value": v, "unit": u, "samples": n}, ...}}
// With --trace 0 the metrics are the end-to-end ones; --trace 1 adds a
// traced phase and reports the per-layer ones. Exits 1 when a correctness
// check fails.

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/workloads.h"
#include "src/common/logging.h"

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

void PrintFingerprint(const RunOptions& options) {
  utsname host{};
  uname(&host);
  const char* threading = std::getenv("AFT_NET_THREADING");
  const double scale = options.workload == "s3-fig3" ? kS3TimeScale : 1.0;
  std::printf(
      "fingerprint: {\"nproc\": %ld, \"kernel\": \"%s %s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"data_dir_fs\": \"%s\", \"sim_time_scale\": %g, "
      "\"server_threading\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), host.sysname, host.release, AFT_PERFBENCH_COMPILER,
      AFT_PERFBENCH_BUILD_TYPE, FilesystemOf(options.work_dir).c_str(), scale,
      threading != nullptr ? JsonEscape(threading).c_str() : "default", options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds, options.trace ? 1 : 0);
}

int Usage() {
  std::fprintf(stderr,
               "usage: aft_perfbench --workload <s3-fig3|tcp-mem|tcp-durable> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.work_dir.empty() ||
      !(options.seconds > 0)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  aft::SetLogLevel(aft::LogLevel::kWarn);

  PrintFingerprint(options);
  std::fflush(stdout);
  Report report;
  if (options.workload == "s3-fig3") {
    RunS3Fig3(options, report);
  } else if (options.workload == "tcp-mem") {
    RunTcp(options, TcpStore::kInstant, report);
  } else if (options.workload == "tcp-durable") {
    RunTcp(options, TcpStore::kLocal, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return Usage();
  }
  if (report.metrics().empty()) {
    report.Check(false, "the workload produced metrics");
  }

  for (const std::string& note : report.notes()) {
    std::printf("%s\n", note.c_str());
  }
  for (const Metric& m : report.metrics()) {
    std::printf("  %-36s %14.6g %-6s (n=%llu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    char value[64];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    json += first ? "" : ", ";
    first = false;
    json += "\"" + JsonEscape(m.name) + "\": {\"value\": " + value + ", \"unit\": \"" +
            JsonEscape(m.unit) + "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
