#!/usr/bin/env bash
# Scheduler/perf smoke: runs a short TPC-C burst at 1, 4, and 8 workers and
# emits BENCH_sched.json with tpmC plus the per-point scheduler dispatch
# counters (steals, parks, queue high-water), then an allocation smoke that
# emits BENCH_alloc.json (allocs/txn + bytes/txn from the codec/MVCC micro
# benches and a short TPC-C run). Future PRs diff these files to see the
# perf trajectory of the dispatch layer and the allocation hot path. Usage:
#   scripts/bench_smoke.sh [seconds-per-point] [sched.json] [alloc.json] [btree.json]
set -eu

cd "$(dirname "$0")/.."

SECONDS_PER_POINT="${1:-2}"
OUT="${2:-BENCH_sched.json}"
ALLOC_OUT="${3:-BENCH_alloc.json}"
BTREE_OUT="${4:-BENCH_btree.json}"
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target exp2_scalability micro_coding micro_mvcc order_management \
  micro_btree \
  >/dev/null

RAW=$("$BUILD_DIR/bench/exp2_scalability" \
  --sweep=1,4,8 \
  --seconds="$SECONDS_PER_POINT" \
  --warmup=0.5 \
  --warehouses=4)
echo "$RAW"

# Each point prints one machine-parseable line:
#   #SCHED workers=N tpmC=... tpm=... submitted=... pulled=... stolen=...
#   steal_fails=... parks=... spurious=... qhwm=...
echo "$RAW" | awk -v secs="$SECONDS_PER_POINT" '
  BEGIN { n = 0 }
  /^#SCHED / {
    line = ""
    for (i = 2; i <= NF; ++i) {
      split($i, kv, "=")
      v = kv[2]
      line = line sprintf("%s\"%s\": %s", (line == "" ? "" : ", "), kv[1], v)
    }
    points[n++] = "    {" line "}"
  }
  END {
    printf "{\n"
    printf "  \"bench\": \"tpcc_sched_smoke\",\n"
    printf "  \"seconds_per_point\": %s,\n", secs
    printf "  \"points\": [\n"
    for (i = 0; i < n; ++i) {
      printf "%s%s\n", points[i], (i + 1 < n ? "," : "")
    }
    printf "  ]\n}\n"
  }
' > "$OUT"

echo "wrote $OUT"

# --- Allocation smoke ------------------------------------------------------
# Micro benches report heap_allocs_per_op / arena_bytes_per_op counters for
# the arena row/delta encoders and the visibility chain walk;
# the TPC-C run prints the driver's "#ALLOC allocs_per_txn=..." line.
MICRO=$("$BUILD_DIR/bench/micro_coding" --benchmark_filter=Allocs \
          --benchmark_min_time=0.1 2>/dev/null
        "$BUILD_DIR/bench/micro_mvcc" --benchmark_filter=Allocs \
          --benchmark_min_time=0.1 2>/dev/null)
echo "$MICRO"

TPCC=$("$BUILD_DIR/examples/order_management" 1 "$SECONDS_PER_POINT")
echo "$TPCC" | grep '^#ALLOC ' || true

{
  echo "$MICRO"
  echo "$TPCC" | grep '^#ALLOC ' || true
} | awk '
  BEGIN { n = 0; alloc = "" }
  # Console lines like:
  #   BM_RowEncodeToArenaAllocs  40 ns  40 ns  100 arena_bytes_per_op=72 ...
  /^BM_[A-Za-z0-9_]*Allocs / {
    line = ""
    for (i = 2; i <= NF; ++i) {
      if (split($i, kv, "=") != 2) continue
      line = line sprintf("%s\"%s\": %s", (line == "" ? "" : ", "),
                          kv[1], kv[2])
    }
    micro[n++] = sprintf("    {\"name\": \"%s\", %s}", $1, line)
  }
  /^#ALLOC / {
    for (i = 2; i <= NF; ++i) {
      split($i, kv, "=")
      alloc = alloc sprintf("%s\"%s\": %s", (alloc == "" ? "" : ", "),
                            kv[1], kv[2])
    }
  }
  END {
    printf "{\n"
    printf "  \"bench\": \"alloc_smoke\",\n"
    printf "  \"micro\": [\n"
    for (i = 0; i < n; ++i) {
      printf "%s%s\n", micro[i], (i + 1 < n ? "," : "")
    }
    printf "  ],\n"
    printf "  \"tpcc\": {%s},\n", alloc
    # Pre-arena reference, measured at the growth seed with a temporary
    # operator-new counter (EXPERIMENTS.md Exp 7): the hot-path rewrite
    # must stay >= 5x below it.
    printf "  \"baseline_pre_arena\": {\"allocs_per_txn\": 895.5, "
    printf "\"heap_bytes_per_txn\": 96588}\n"
    printf "}\n"
  }
' > "$ALLOC_OUT"

echo "wrote $ALLOC_OUT"

# --- B-Tree node-kernel smoke ----------------------------------------------
# Point lookup / insert / short scan over three key shapes: 8-byte integer,
# TPC-C composite (shared prefixes — the layout-v2 sweet spot), and
# distinct-prefix (worst case: truncation finds nothing to strip). The
# baseline_pre_v2 block is the pre-layout-v2 kernel measured back-to-back
# with the v2 kernel in the same window on the same machine; ci.sh asserts
# the composite lookup speedup and the worst-case non-regression against it.
BTREE_RAW=$("$BUILD_DIR/bench/micro_btree" \
  --benchmark_filter=BM_BTree \
  --benchmark_min_time=0.2 \
  --benchmark_format=json 2>/dev/null)

python3 - "$BTREE_OUT" <<EOF
import json, sys
raw = json.loads('''$BTREE_RAW''')
points = [
    {"name": b["name"], "ns": round(b["real_time"], 1)}
    for b in raw.get("benchmarks", [])
    if b.get("run_type", "iteration") == "iteration"
]
doc = {
    "bench": "btree_node_kernel",
    "points": points,
    # Pre-layout-v2 kernel (growth seed 580808d) on the same workloads,
    # RelWithDebInfo, measured back-to-back with v2 (EXPERIMENTS.md Exp 7).
    "baseline_pre_v2": {
        "BM_BTreeLookup/10000": 208,
        "BM_BTreeLookup/1000000": 901,
        "BM_BTreeInsert": 259,
        "BM_BTreeScan100": 1215,
        "BM_BTreeLookupComposite/10000": 213,
        "BM_BTreeLookupComposite/1000000": 917,
        "BM_BTreeLookupDistinctPrefix/10000": 218,
        "BM_BTreeLookupDistinctPrefix/1000000": 908,
        "BM_BTreeInsertComposite": 312,
        "BM_BTreeScan100Composite": 1409,
    },
}
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF

echo "wrote $BTREE_OUT"
