#!/usr/bin/env bash
# Throughput regression gate over one bench JSON file (tools/bench.sh output).
#
# Gates on a WITHIN-RUN ratio, not on absolute ops/sec: bench_net runs every
# throughput workload under the pooled, pipelined transport ("thread") and
# the single-flight "baseline" config in the same process on the same
# machine, so the speedup of pipelined over baseline is independent of how
# fast the runner happens to be. (Comparing absolute numbers against a
# checked-in file from another machine shifts the ratio with runner speed —
# it fails spuriously on slow runners and masks regressions on fast ones.)
#
# The gate takes the GEOMETRIC MEAN of the per-row speedups at high client
# counts (>= MIN_CLIENTS, default 16 — where pipelining is designed to win;
# the 1-client rows measure per-op latency, not pipeline capacity) and fails
# when it drops below MIN_SPEEDUP. A serialized server or a single-flighted
# client pulls the geomean to ~1.0x, far below the floor, while the healthy
# transport sits near 2.5x even in smoke runs. Rows with no "baseline" pair
# (bench_net's "tput conns" connection sweep) are skipped. Zero matching row pairs
# is an error — a gate that silently compares nothing is worse than no gate.
#
# A second within-run gate holds the cross-transaction commit-batching win
# (bench_net's "tput zipf batched|unbatched" rows): geomean batched/unbatched
# ops-per-sec at >= MIN_CLIENTS must also clear MIN_SPEEDUP.
#
# A third within-run gate bounds latency-attribution overhead (bench_obs's
# "commit attribution off|on" rows): attribution-on p50 commit latency must
# stay within MAX_ATTR_RATIO (env, default 1.05) of attribution-off.
#
# A fourth, absolute gate covers allocation count: bench_net's
# "inproc commit" row carries allocs_per_txn — heap allocations per commit
# on the measuring thread. Unlike ops/sec this IS machine-independent (the
# code path allocates what it allocates), so it gates against a checked-in
# ceiling. The zero-copy commit pipeline (PR 7) brought it from ~39 to ~6;
# the ceiling holds the line just above the measured value so a single
# reintroduced per-commit allocation fails visibly.
#
# A fifth, within-run gate holds the paper's headline cost figure
# (bench_fig3_end_to_end): AFT's p50 over Plain's on the same engine in the
# same run, at most 1.35x on S3 and Redis and 1.25x on DynamoDB. It counts
# only engine pairs where both rows completed >= 200 transactions; a --smoke
# run completes far fewer, so each such pair prints an explicit SKIP line
# instead of passing.
#
# A sixth, within-run gate holds GC rounds to what they delete
# (bench_micro_ops's "gc round <node|fm> <records>" rows): a node-local and a
# fault-manager GC round that find no victims must run at least half as
# many rounds per second over 100,000 live records as over 1,000.
#
# Usage: tools/bench_gate.sh CURRENT.json [MIN_SPEEDUP] [MIN_CLIENTS] [MAX_ALLOCS]
#
#   MIN_SPEEDUP   geomean (pipelined / baseline) ops-per-sec floor,
#                 default 1.5.
#   MIN_CLIENTS   only rows with at least this many clients count,
#                 default 16.
#   MAX_ALLOCS    allocations-per-txn ceiling on the "inproc commit" row,
#                 default 8.0.

set -euo pipefail

if [[ $# -lt 1 || $# -gt 4 ]]; then
  echo "usage: tools/bench_gate.sh CURRENT.json [MIN_SPEEDUP] [MIN_CLIENTS] [MAX_ALLOCS]" >&2
  exit 2
fi
CURRENT="$1"
MIN_SPEEDUP="${2:-1.5}"
MIN_CLIENTS="${3:-16}"
MAX_ALLOCS="${4:-8.0}"

if [[ ! -f "$CURRENT" ]]; then
  echo "bench_gate: no such file: $CURRENT" >&2
  exit 2
fi

# One "<workload> <config> <clients>\t<ops/sec>" line per closed-loop row.
# The JSON is our own one-object-per-line format (tools/bench.sh), so sed is
# sufficient and the gate needs no JSON tooling on the CI image.
sed -nE 's/.*"row":"tput ([^"]*)".*"txn_per_s":([0-9.]+).*/\1\t\2/p' "$CURRENT" \
  | awk -F '\t' -v floor="$MIN_SPEEDUP" -v min_clients="$MIN_CLIENTS" '
  {
    # $1 is "<workload> <config> <N>c", e.g. "commit thread 16c".
    split($1, f, " ");
    workload = f[1]; config = f[2]; clients = f[3] + 0;
    if (clients < min_clients) { next }
    key = workload "/" clients "c";
    if (config == "baseline") { base[key] = $2 + 0 }
    else                      { cur[key "/" config] = $2 + 0 }
  }
  END {
    for (k in cur) {
      split(k, p, "/");
      bkey = p[1] "/" p[2];
      if (!(bkey in base) || base[bkey] <= 0) { continue }
      ratio = cur[k] / base[bkey];
      n++;
      log_sum += log(ratio);
      printf "%-7s %-28s %10.0f -> %10.0f ops/s  (x%.2f vs single-flight)\n",
             (ratio < floor ? "slow" : "ok"), k, base[bkey], cur[k], ratio;
    }
    if (n == 0) {
      print "bench_gate: no pipelined/baseline throughput row pairs found" > "/dev/stderr";
      exit 1;
    }
    geomean = exp(log_sum / n);
    if (geomean < floor) {
      printf "bench_gate: FAIL — geomean pipelined-vs-baseline speedup x%.2f is below x%.2f (%d rows)\n",
             geomean, floor, n > "/dev/stderr";
      exit 1;
    }
    printf "bench_gate: PASS — geomean pipelined-vs-baseline speedup x%.2f over %d rows (floor x%.2f)\n",
           geomean, n, floor;
  }
'

# ---- commit-batching speedup -------------------------------------------------
# Third gate, same within-run-ratio philosophy as the first: bench_net runs
# the Zipfian hot-key RMW closed loop twice in the same process over the
# same pool-4 simulated engine — once through a view of it that reports an
# unbounded pool ("unbatched": every commit runs its own two-round
# CommitUnits round) and once directly ("batched": once 4 rounds are in
# flight, concurrent commits share rounds, src/core/commit_batcher.h). The geomean of the per-client-
# count batched/unbatched ops-per-sec ratios at >= MIN_CLIENTS must clear
# MIN_SPEEDUP. A batcher that stops fusing (every round solo) pulls the ratio
# to ~1.0x; the healthy batcher sits near 2x at 16 clients. Zero row pairs is
# an error, as above.
sed -nE 's/.*"row":"tput zipf (batched|unbatched) ([0-9]+)c".*"txn_per_s":([0-9.]+).*/\1\t\2\t\3/p' "$CURRENT" \
  | awk -F '\t' -v floor="$MIN_SPEEDUP" -v min_clients="$MIN_CLIENTS" '
  {
    clients = $2 + 0;
    if (clients < min_clients) { next }
    # Several appended runs may repeat a row; last one wins, as in gate 1.
    if ($1 == "batched") { batched[clients] = $3 + 0 } else { unbatched[clients] = $3 + 0 }
  }
  END {
    for (c in batched) {
      if (!(c in unbatched) || unbatched[c] <= 0) { continue }
      ratio = batched[c] / unbatched[c];
      n++;
      log_sum += log(ratio);
      printf "%-7s zipf/%sc %28.0f -> %10.0f ops/s  (x%.2f vs unbatched)\n",
             (ratio < floor ? "slow" : "ok"), c, unbatched[c], batched[c], ratio;
    }
    if (n == 0) {
      print "bench_gate: no batched/unbatched zipf throughput row pairs found" > "/dev/stderr";
      exit 1;
    }
    geomean = exp(log_sum / n);
    if (geomean < floor) {
      printf "bench_gate: FAIL — geomean batched-vs-unbatched commit speedup x%.2f is below x%.2f (%d rows)\n",
             geomean, floor, n > "/dev/stderr";
      exit 1;
    }
    printf "bench_gate: PASS — geomean batched-vs-unbatched commit speedup x%.2f over %d rows (floor x%.2f)\n",
           geomean, n, floor;
  }
'

# ---- attribution overhead ----------------------------------------------------
# Latency attribution (the per-stage aft_commit_stage_seconds decomposition)
# ships always-on, so its cost is gated like a regression: bench_obs runs the
# same CPU-bound 4-op commit loop with stage timing off and on in one process
# ("commit attribution off|on" rows, best-of-3 each) and attribution-on p50
# commit latency must stay within MAX_ATTR_RATIO of attribution-off (default
# 1.05 — at most 5% slower) plus 2 µs of absolute slack for timer/scheduler
# granularity at the µs commit scale of the zero-latency engine. p50 rather
# than throughput: the within-run median is far less exposed to scheduler
# noise on small CI runners, while a real regression (attribution suddenly
# costing tens of µs) still fails loudly. Same within-run philosophy as
# gates 1-2.
MAX_ATTR_RATIO="${MAX_ATTR_RATIO:-1.05}"
sed -nE 's/.*"row":"commit attribution (off|on)".*"p50_ms":([0-9.]+).*"txn_per_s":([0-9.]+).*/\1\t\2\t\3/p' "$CURRENT" \
  | awk -F '\t' -v ceil="$MAX_ATTR_RATIO" '
  { if ($1 == "off") { off = $2 + 0; off_tps = $3 + 0 } else { on = $2 + 0; on_tps = $3 + 0 } }  # last run wins
  END {
    if (off == 0 || on == 0) {
      print "bench_gate: no commit attribution on/off row pair found" > "/dev/stderr";
      exit 1;
    }
    limit = off * ceil + 0.002;
    if (on > limit) {
      printf "bench_gate: FAIL — attribution-on p50 %.4f ms exceeds %.4f ms (off p50 %.4f ms x%.2f + 2 µs)\n",
             on, limit, off, ceil > "/dev/stderr";
      exit 1;
    }
    printf "bench_gate: PASS — attribution-on p50 %.4f ms vs off %.4f ms (ceiling %.4f ms; tput %.0f -> %.0f txn/s)\n",
           on, off, limit, off_tps, on_tps;
  }
'

# ---- allocations-per-commit ceiling -----------------------------------------
# The file may hold several appended runs; the LAST row of each kind is the
# current one. Missing row (or a bench binary built without the counter) is
# an error for the same reason as zero throughput pairs above. Two commit
# paths are held to the same ceiling: "inproc commit" (bench_net, simulated
# engine) and "local commit" (bench_local_engine, the durable WAL engine —
# real writev + fdatasync must not cost heap allocations either).
for row in "inproc commit" "local commit"; do
  sed -nE 's/.*"row":"'"$row"'".*"allocs_per_txn":([0-9.]+).*/\1/p' "$CURRENT" \
    | awk -v ceiling="$MAX_ALLOCS" -v row="$row" '
    { last = $1 + 0; n++ }
    END {
      if (n == 0) {
        printf "bench_gate: no \"%s\" allocs_per_txn row found\n", row > "/dev/stderr";
        exit 1;
      }
      if (last > ceiling) {
        printf "bench_gate: FAIL — %.1f allocations/txn on the %s path exceeds the %.1f ceiling\n",
               last, row, ceiling > "/dev/stderr";
        exit 1;
      }
      printf "bench_gate: PASS — %.1f allocations/txn on the %s path (ceiling %.1f)\n",
             last, row, ceiling;
    }
  '
done

# ---- fig3 AFT-over-Plain p50 -------------------------------------------------
# The paper prices AFT as its latency over talking to storage directly
# (Figure 3): +23% on S3, ~0% on DynamoDB, +18% on Redis. bench_fig3 runs
# Plain and AFT on each engine in one process, so AFT p50 / Plain p50 is a
# within-run ratio like gates 1-3. The bounds leave room over the paper's
# figures for the simulator's spread. A pair with fewer than MIN_FIG3_TXNS
# completed transactions on either side is too small for a stable median:
# it prints SKIP with its count and is not gated. No fig3 row pair at all is
# an error, as above.
readonly MIN_FIG3_TXNS=200
sed -nE 's/.*"bench":"fig3_end_to_end","row":"(S3|DynamoDB|Redis) (Plain|Aft)".*"p50_ms":([0-9.]+).*"completed":([0-9]+).*/\1\t\2\t\3\t\4/p' "$CURRENT" \
  | awk -F '\t' -v min_txns="$MIN_FIG3_TXNS" '
  {
    # Several appended runs may repeat a row; last one wins, as in gate 1.
    if ($2 == "Plain") { plain[$1] = $3 + 0; plain_n[$1] = $4 + 0 }
    else               { aft[$1] = $3 + 0;   aft_n[$1] = $4 + 0 }
  }
  END {
    bound["S3"] = 1.35; bound["DynamoDB"] = 1.25; bound["Redis"] = 1.35;
    split("S3 DynamoDB Redis", engines, " ");
    for (i = 1; i <= 3; i++) {
      e = engines[i];
      if (!(e in plain) || !(e in aft) || plain[e] <= 0) { continue }
      pairs++;
      n = plain_n[e] < aft_n[e] ? plain_n[e] : aft_n[e];
      if (n < min_txns) {
        printf "SKIP    fig3/%-8s (n=%d < %d completed txns) AFT/Plain p50 not gated\n", e, n, min_txns;
        continue;
      }
      gated++;
      ratio = aft[e] / plain[e];
      if (ratio > bound[e]) { failed++ }
      printf "%-7s fig3/%-8s %8.2f -> %8.2f ms p50  (AFT/Plain x%.2f, bound x%.2f, n=%d)\n",
             (ratio > bound[e] ? "slow" : "ok"), e, plain[e], aft[e], ratio, bound[e], n;
    }
    if (pairs == 0) {
      print "bench_gate: no fig3_end_to_end Plain/Aft row pairs found" > "/dev/stderr";
      exit 1;
    }
    if (failed > 0) {
      printf "bench_gate: FAIL — AFT/Plain p50 above its bound on %d of %d fig3 engines\n",
             failed, gated > "/dev/stderr";
      exit 1;
    }
    if (gated == 0) {
      printf "bench_gate: SKIP — fig3 AFT/Plain p50: no engine pair has >= %d completed txns\n",
             min_txns;
      exit 0;
    }
    printf "bench_gate: PASS — fig3 AFT/Plain p50 within bounds on %d engines (%d skipped)\n",
           gated, pairs - gated;
  }
'

# ---- GC round scaling ----------------------------------------------------------
# The garbage collectors drain a queue of newly superseded records instead of
# re-checking the whole commit set (src/core/key_version_index.h), so a round
# that deletes nothing costs the same over 100,000 live records as over
# 1,000. bench_micro_ops times both sizes for the node-local and the
# fault-manager round in one process, three repetitions each; the best
# repetition of the 100k row must reach at least 1/MAX_GC_SCALING of the
# best 1k row's rounds per second. A round that scans the commit set reads
# ~100x slower. A missing row pair is an error, as above.
readonly MAX_GC_SCALING=2
sed -nE 's/.*"row":"gc round (node|fm) ([0-9]+)".*"txn_per_s":([0-9.]+).*/\1\t\2\t\3/p' "$CURRENT" \
  | awk -F '\t' -v ceil="$MAX_GC_SCALING" '
  {
    key = $1 "/" $2;
    if (!(key in best) || $3 + 0 > best[key]) { best[key] = $3 + 0 }
  }
  END {
    split("node fm", rounds, " ");
    for (i = 1; i <= 2; i++) {
      r = rounds[i];
      small = best[r "/1000"]; large = best[r "/100000"];
      if (small <= 0 || large <= 0) {
        printf "bench_gate: no \"gc round %s\" 1000/100000 row pair found\n", r > "/dev/stderr";
        exit 1;
      }
      ratio = small / large;
      if (ratio > ceil) { failed++ }
      printf "%-7s gc round %-4s %12.0f -> %12.0f rounds/s  (1k/100k x%.2f, bound x%.2f)\n",
             (ratio > ceil ? "slow" : "ok"), r, small, large, ratio, ceil;
    }
    if (failed > 0) {
      printf "bench_gate: FAIL — a no-victim GC round over 100k records is over x%.2f the 1k round\n",
             ceil > "/dev/stderr";
      exit 1;
    }
    printf "bench_gate: PASS — no-victim GC rounds within x%.2f from 1k to 100k live records\n", ceil;
  }
'
