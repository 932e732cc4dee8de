// Per-layer metrics: span self times from the benchmark's own spans, and
// exact means and counts from registry deltas over the traced phase.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench/workloads.h"
#include "src/common/contention.h"

namespace perfbench {
namespace {

// Matches aft_server's default contention sampling.
constexpr uint32_t kLockSampleEveryN = 64;

double PerTxn(double total, uint64_t txns) {
  return txns > 0 ? total / static_cast<double>(txns) : 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

size_t Index(SpanName name) { return static_cast<size_t>(name); }

}  // namespace

void TraceWindow::Begin() {
  SpanRecorder& recorder = SpanRecorder::Global();
  recorder.Clear();
  aft::contention::SetSampleEveryN(kLockSampleEveryN);
  registry.before = RegistrySnapshot::Take();
  recorder.SetEnabled(true);
}

void TraceWindow::End(const std::string& span_path, Report& report) {
  SpanRecorder& recorder = SpanRecorder::Global();
  recorder.SetEnabled(false);
  registry.after = RegistrySnapshot::Take();
  aft::contention::SetSampleEveryN(0);
  spans = SummarizeSpans(recorder);
  if (recorder.WriteJsonLines(span_path)) {
    report.Note("spans written to " + span_path);
  } else {
    report.Note("could not write spans to " + span_path);
  }
  recorder.Clear();
}

void AddLayerMetrics(Report& report, const LayerInputs& in) {
  const RegistryDelta& reg = *in.registry;
  const SpanSummary& spans = in.spans;
  const uint64_t txns = in.txns;
  const double tf = in.time_factor;
  auto span_ms = [&](SpanName name) { return spans.mean_ms[Index(name)] * tf; };
  auto span_count = [&](SpanName name) { return spans.count[Index(name)]; };
  auto self_ms = [&](SpanName name) { return spans.self_ms_per_txn[Index(name)] * tf; };

  // ---- faas ----
  report.Add("faas.invoke_self_ms", self_ms(SpanName::kFaasChain), "ms", txns);
  report.Add("faas.invocations_per_txn", PerTxn(static_cast<double>(in.faas_invocations), txns),
             "count", txns);
  report.Add("faas.retries_per_txn", PerTxn(static_cast<double>(in.faas_retries), txns), "count",
             txns);

  // ---- cluster (in-proc client; every call is one charged hop) ----
  const uint64_t cluster_calls =
      span_count(SpanName::kClusterStart) + span_count(SpanName::kClusterRead) +
      span_count(SpanName::kClusterPut) + span_count(SpanName::kClusterCommit);
  report.Add("cluster.client_calls_per_txn", PerTxn(static_cast<double>(cluster_calls), txns),
             "count", txns);
  report.Add("cluster.client_start_ms", span_ms(SpanName::kClusterStart), "ms",
             span_count(SpanName::kClusterStart));
  report.Add("cluster.client_read_ms", span_ms(SpanName::kClusterRead), "ms",
             span_count(SpanName::kClusterRead));
  report.Add("cluster.client_put_ms", span_ms(SpanName::kClusterPut), "ms",
             span_count(SpanName::kClusterPut));
  report.Add("cluster.client_commit_ms", span_ms(SpanName::kClusterCommit), "ms",
             span_count(SpanName::kClusterCommit));
  report.Add("cluster.gossip_rounds", static_cast<double>(in.gossip_rounds), "count",
             in.gossip_rounds);
  const double gc_txns = reg.Count("aft_fm_txns_deleted_total");
  report.Add("cluster.gc_txns_deleted", gc_txns, "count", static_cast<uint64_t>(gc_txns));
  const double gc_versions = reg.Count("aft_fm_versions_deleted_total");
  report.Add("cluster.gc_versions_deleted", gc_versions, "count",
             static_cast<uint64_t>(gc_versions));

  // ---- net (client spans vs server-side service time) ----
  struct NetMethod {
    const char* suffix;
    SpanName span;
    const char* label;
  };
  const NetMethod methods[] = {{"start", SpanName::kNetStart, "method=\"StartTxn\""},
                               {"get", SpanName::kNetGet, "method=\"Get\""},
                               {"put", SpanName::kNetPut, "method=\"Put\""},
                               {"commit", SpanName::kNetCommit, "method=\"Commit\""}};
  double server_ms_total = 0;
  for (const NetMethod& m : methods) {
    const double client = span_ms(m.span);
    report.Add(std::string("net.client_") + m.suffix + "_ms", client, "ms", span_count(m.span));
  }
  for (const NetMethod& m : methods) {
    const double server = reg.Mean("aft_net_rpc_latency_ms", {m.label}) * tf;
    const double calls = reg.HistCount("aft_net_rpc_latency_ms", {m.label});
    server_ms_total += server * calls;
    report.Add(std::string("net.server_") + m.suffix + "_ms", server, "ms",
               static_cast<uint64_t>(calls));
  }
  for (const NetMethod& m : methods) {
    const double client = span_ms(m.span);
    const double server = reg.Mean("aft_net_rpc_latency_ms", {m.label}) * tf;
    report.Add(std::string("net.wire_") + m.suffix + "_ms", client > 0 ? client - server : 0,
               "ms", span_count(m.span));
  }
  const double rpcs = reg.Count("aft_net_client_rpcs_sent_total");
  report.Add("net.rpcs_per_txn", PerTxn(rpcs, txns), "count", static_cast<uint64_t>(rpcs));
  const double net_retries = reg.Count("aft_net_client_retries_total");
  report.Add("net.retries", net_retries, "count", static_cast<uint64_t>(rpcs));
  report.Add("net.reconnects", reg.Count("aft_net_client_reconnects_total"), "count",
             static_cast<uint64_t>(rpcs));
  report.Add("net.backpressure_pauses", reg.Count("aft_net_backpressure_pauses_total"), "count",
             static_cast<uint64_t>(rpcs));

  // ---- core read path ----
  const double reads = reg.Count("aft_node_reads_total");
  const double read_hist = reg.HistCount("aft_node_read_latency_ms");
  report.Add("core.read_ms", reg.Mean("aft_node_read_latency_ms") * tf, "ms",
             static_cast<uint64_t>(read_hist));
  report.Add("core.read_walk_depth", reg.Mean("aft_node_read_walk_depth"), "count",
             static_cast<uint64_t>(reg.HistCount("aft_node_read_walk_depth")));
  const double hits = reg.Count("aft_node_data_cache_hits_total");
  const double misses = reg.Count("aft_node_data_cache_misses_total");
  report.Add("core.cache_hit_ratio", Ratio(hits, hits + misses), "ratio",
             static_cast<uint64_t>(hits + misses));
  report.Add("core.cache_lookups", hits + misses, "count", static_cast<uint64_t>(hits + misses));
  report.Add("core.read_aborts_per_read", Ratio(reg.Count("aft_node_read_aborts_total"), reads),
             "ratio", static_cast<uint64_t>(reads));
  report.Add("core.reads", reads, "count", static_cast<uint64_t>(reads));
  report.Add("core.storage_gets_per_read", Ratio(reg.Count("aft_storage_gets_total"), reads),
             "ratio", static_cast<uint64_t>(reads));

  // ---- core commit path ----
  const double commits = reg.Count("aft_node_txns_committed_total");
  report.Add("core.commit_ms", reg.Mean("aft_node_commit_latency_ms") * tf, "ms",
             static_cast<uint64_t>(reg.HistCount("aft_node_commit_latency_ms")));
  for (const char* stage : {"txn_lock_wait", "queue_wait_leader", "queue_wait_follower",
                            "data_flush", "barrier", "record_write", "gossip_publish"}) {
    const std::string label = std::string("stage=\"") + stage + "\"";
    report.Add(std::string("core.stage.") + stage + "_ms",
               reg.Mean("aft_commit_stage_seconds", {label}) * 1000.0 * tf, "ms",
               static_cast<uint64_t>(reg.HistCount("aft_commit_stage_seconds", {label})));
  }
  const double batches = reg.HistCount("aft_commit_batch_size");
  report.Add("core.batch_size_mean", reg.Mean("aft_commit_batch_size"), "count",
             static_cast<uint64_t>(batches));
  report.Add("core.rounds_per_commit", Ratio(reg.Count("aft_commit_batch_rounds_total"), commits),
             "ratio", static_cast<uint64_t>(commits));
  const double leaders = reg.Count("aft_commit_batch_commits_total", {"role=\"leader\""});
  const double followers = reg.Count("aft_commit_batch_commits_total", {"role=\"follower\""});
  report.Add("core.follower_share", Ratio(followers, leaders + followers), "ratio",
             static_cast<uint64_t>(leaders + followers));

  // ---- storage ----
  const double api_calls = reg.Count("aft_storage_api_calls_total");
  report.Add("storage.api_calls_per_txn", PerTxn(api_calls, txns), "count",
             static_cast<uint64_t>(api_calls));
  const double bytes_written = reg.Count("aft_storage_bytes_written_total");
  report.Add("storage.bytes_written_per_txn", PerTxn(bytes_written, txns), "B", txns);
  // Simulated engines record the charged (simulated) latency; LocalEngine
  // records wall time on a workload whose time factor is 1.
  for (const char* op : {"get", "put", "batch"}) {
    const std::string label = std::string("op=\"") + op + "\"";
    report.Add(std::string("storage.") + op + "_ms",
               reg.Mean("aft_storage_op_latency_ms", {label}), "ms",
               static_cast<uint64_t>(reg.HistCount("aft_storage_op_latency_ms", {label})));
  }
  const double fsyncs = reg.Count("aft_wal_fsyncs_total");
  report.Add("storage.fsyncs_per_txn", PerTxn(fsyncs, txns), "count",
             static_cast<uint64_t>(fsyncs));
  report.Add("storage.wal_bytes_per_user_byte",
             Ratio(reg.Count("aft_wal_bytes_appended_total"),
                   static_cast<double>(in.user_bytes_written)),
             "ratio", in.user_bytes_written);
  const uint64_t live = in.wal_total_bytes - std::min(in.wal_dead_bytes, in.wal_total_bytes);
  report.Add("storage.space_per_live_byte",
             Ratio(static_cast<double>(in.wal_total_bytes), static_cast<double>(live)), "ratio",
             live);
  const double compactions = reg.Count("aft_wal_compactions_total");
  report.Add("storage.compactions", compactions, "count", static_cast<uint64_t>(compactions));
  report.Add("storage.compaction_reclaimed_bytes",
             reg.Count("aft_wal_compaction_reclaimed_bytes_total"), "B",
             static_cast<uint64_t>(compactions));

  // ---- common: sampled lock and executor-queue waits, scaled back up ----
  const double scale_up = static_cast<double>(kLockSampleEveryN) * 1000.0 * tf;
  const double lock_wait = reg.Count("aft_lock_wait_seconds_total", {"kind=\"lock\""});
  const double queue_wait = reg.Count("aft_lock_wait_seconds_total", {"kind=\"queue\""});
  const double lock_samples = reg.Count("aft_lock_wait_samples_total", {"kind=\"lock\""});
  const double queue_samples = reg.Count("aft_lock_wait_samples_total", {"kind=\"queue\""});
  report.Add("common.lock_wait_ms_per_txn", PerTxn(lock_wait * scale_up, txns), "ms",
             static_cast<uint64_t>(lock_samples));
  report.Add("common.queue_wait_ms_per_txn", PerTxn(queue_wait * scale_up, txns), "ms",
             static_cast<uint64_t>(queue_samples));
  for (const std::string& site : reg.after.LabelValues("aft_lock_wait_seconds_total", "lock")) {
    const std::string label = "lock=\"" + site + "\"";
    const double wait = reg.Count("aft_lock_wait_seconds_total", {label}) * scale_up;
    if (wait > 0) {
      char line[160];
      std::snprintf(line, sizeof(line), "lock_wait_ms.%s = %.4f ms/txn", site.c_str(),
                    PerTxn(wait, txns));
      report.Note(line);
    }
  }

  // ---- self time per layer (ms per transaction) ----
  // Node-side time: the server's service time over TCP, the node's read and
  // commit histograms in-proc (start and put are not timed by the node).
  const double inproc_node_ms =
      (reg.Count("aft_node_read_latency_ms_sum") + reg.Count("aft_node_commit_latency_ms_sum")) *
      tf;
  const bool over_tcp = server_ms_total > 0;
  double cluster_client_ms = 0;
  for (SpanName name : {SpanName::kClusterStart, SpanName::kClusterRead, SpanName::kClusterPut,
                        SpanName::kClusterCommit}) {
    cluster_client_ms += self_ms(name);
  }
  double net_client_ms = 0;
  for (const NetMethod& m : methods) {
    net_client_ms += self_ms(m.span);
  }
  const double node_ms = PerTxn(over_tcp ? server_ms_total : inproc_node_ms, txns);
  report.Add("self.workload_ms", self_ms(SpanName::kTxn) + self_ms(SpanName::kFunction), "ms",
             txns);
  report.Add("self.faas_ms", self_ms(SpanName::kFaasChain), "ms", txns);
  report.Add("self.cluster_ms", over_tcp ? 0 : cluster_client_ms - node_ms, "ms", txns);
  report.Add("self.net_ms", over_tcp ? net_client_ms - node_ms : 0, "ms", txns);
  report.Add("self.node_ms", node_ms, "ms", txns);

  // ---- attribution ----
  // Covered = the transaction's time minus the benchmark's own code (root
  // and function-body self time) and minus node commit time that none of
  // the seven commit stages claims.
  const double commit_ms_total = reg.Count("aft_node_commit_latency_ms_sum") * tf;
  double staged_ms_total = 0;
  for (const char* stage : {"txn_lock_wait", "queue_wait_leader", "queue_wait_follower",
                            "data_flush", "barrier", "record_write", "gossip_publish"}) {
    staged_ms_total += reg.Count("aft_commit_stage_seconds_sum",
                                 {std::string("stage=\"") + stage + "\""}) *
                       1000.0 * tf;
  }
  const double txn_ms = spans.mean_ms[Index(SpanName::kTxn)] * tf;
  const double uncovered_ms = self_ms(SpanName::kTxn) + self_ms(SpanName::kFunction) +
                              PerTxn(std::max(0.0, commit_ms_total - staged_ms_total), txns);
  report.Add("trace.coverage", Ratio(txn_ms - uncovered_ms, txn_ms), "ratio", spans.txns);
  report.Add("trace.overhead", Ratio(in.traced_p50_ms, in.untraced_p50_ms), "ratio", txns);
  report.Add("trace.txns", static_cast<double>(spans.txns), "count", spans.txns);
}

}  // namespace perfbench
