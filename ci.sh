#!/usr/bin/env bash
# Tier-1 gate, fully offline: format, lint, build, test, smokes.
#
# The workspace has no external dependencies (see crates/testkit), so every
# step runs with --offline against an empty registry.
#
# Modes:
#   ci.sh                 default gate (all stages below, in order)
#   ci.sh --list          print the stage names and exit
#   ci.sh --only STAGE    run a single stage (repeatable: --only a --only b)
#
# Host time is measured by perf/ (raw-perf run|trace|diff|check, see
# perf/README.md), not here; perf_smoke only keeps that ledger honest.
set -euo pipefail
cd "$(dirname "$0")"

# ---------------------------------------------------------------- stages ----

STAGES=(fmt clippy doc build test_serial test_parallel cache_smoke
  exact_smoke service_smoke replay_smoke metrics_smoke trace_smoke
  annotate_smoke scenario_smoke sim_smoke trace_diff perf_smoke)

stage_fmt() {
  cargo fmt --all -- --check
}

stage_clippy() {
  cargo clippy --offline --workspace --all-targets -- -D warnings
}

stage_doc() {
  RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet
}

stage_build() {
  cargo build --offline --release
  cargo build --offline --release --workspace --examples
}

stage_test_serial() {
  # Serial compile pipeline.
  RAWCC_THREADS=1 cargo test --offline --workspace -q
}

stage_test_parallel() {
  # Same binaries, second scheduling regime: every golden snapshot and
  # differential test must be bit-identical under an 8-worker block fan-out.
  RAWCC_THREADS=8 cargo test --offline --workspace -q
}

stage_cache_smoke() {
  # Two identical compiles; the second must be 100% hits and byte-identical.
  # The --quick kernels never reach a block with hundreds of port events per
  # tile, so the full-size fpppp kernel rides along.
  local cache_dir
  cache_dir="$(mktemp -d)"
  for temp in cold warm; do
    cargo run --offline --release -p raw-bench --bin raw-bench -- \
      compile --tiles 16 --quick --cache-dir "$cache_dir/blocks" \
      > "$cache_dir/$temp.txt"
    cargo run --offline --release -p raw-bench --bin raw-bench -- \
      compile --tiles 4 --bench fpppp-kernel --cache-dir "$cache_dir/blocks" \
      >> "$cache_dir/$temp.txt"
  done
  if grep -qv "cache_misses=0 " "$cache_dir/warm.txt"; then
    echo "ci: warm cache run recompiled a block:" >&2
    cat "$cache_dir/warm.txt" >&2
    exit 1
  fi
  local cold_hashes warm_hashes
  cold_hashes="$(sed 's/.*\(asm_hash=0x[0-9a-f]*\)/\1/' "$cache_dir/cold.txt")"
  warm_hashes="$(sed 's/.*\(asm_hash=0x[0-9a-f]*\)/\1/' "$cache_dir/warm.txt")"
  if [[ "$cold_hashes" != "$warm_hashes" ]]; then
    echo "ci: warm cache changed the generated asm" >&2
    diff <(echo "$cold_hashes") <(echo "$warm_hashes") >&2 || true
    exit 1
  fi
  rm -rf "$cache_dir"
}

stage_exact_smoke() {
  # Exact-solver oracle: portfolio compiles of two small workloads must be
  # byte-identical across worker-thread counts, and the gap table's built-in
  # assertion (no heuristic ever beats a certified optimum) must hold.
  local dir
  dir="$(mktemp -d)"
  for bench in mxm jacobi; do
    RAWCC_THREADS=1 cargo run --offline --release -p raw-bench --bin raw-bench -- \
      compile --tiles 4 --quick --bench "$bench" --strategy portfolio \
      > "$dir/$bench-t1.txt"
    RAWCC_THREADS=8 cargo run --offline --release -p raw-bench --bin raw-bench -- \
      compile --tiles 4 --quick --bench "$bench" --strategy portfolio \
      > "$dir/$bench-t8.txt"
    local h1 h8
    h1="$(sed 's/.*\(asm_hash=0x[0-9a-f]*\)/\1/' "$dir/$bench-t1.txt")"
    h8="$(sed 's/.*\(asm_hash=0x[0-9a-f]*\)/\1/' "$dir/$bench-t8.txt")"
    if [[ -z "$h1" || "$h1" != "$h8" ]]; then
      echo "ci: portfolio asm differs across thread counts for $bench" >&2
      diff "$dir/$bench-t1.txt" "$dir/$bench-t8.txt" >&2 || true
      exit 1
    fi
  done
  # --gap-table exits nonzero if any heuristic beats a certified optimum.
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    compile --tiles 4 --quick --gap-table > "$dir/gap.txt"
  if ! grep -q "^total" "$dir/gap.txt"; then
    echo "ci: gap table missing its total row:" >&2
    cat "$dir/gap.txt" >&2
    exit 1
  fi
  rm -rf "$dir"
}

stage_service_smoke() {
  # Start the compile daemon, hit it concurrently from two OS processes,
  # diff every asm hash against an in-process compile, demand a 100%-hit
  # warm run, and verify a clean shutdown with no orphan process.
  cargo build --offline --release -p raw-bench
  local bin=target/release/raw-bench
  local dir
  dir="$(mktemp -d)"

  "$bin" serve --addr 127.0.0.1:0 --cache-dir "$dir/blocks" \
    > "$dir/serve.txt" 2>&1 &
  local pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^rawcc-serve listening on //p' "$dir/serve.txt")"
    [[ -n "$addr" ]] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "ci: daemon died during startup:" >&2
      cat "$dir/serve.txt" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [[ -z "$addr" ]]; then
    echo "ci: daemon never printed its address" >&2
    kill "$pid" 2>/dev/null || true
    exit 1
  fi

  # In-process reference hashes for the same workload.
  "$bin" compile --tiles 4 --quick > "$dir/local.txt"

  # Two concurrent client processes (distinct from the daemon process and
  # from each other) race over the cold shared cache.
  "$bin" compile --tiles 4 --quick --remote "$addr" > "$dir/remote_a.txt" &
  local a=$!
  "$bin" compile --tiles 4 --quick --remote "$addr" > "$dir/remote_b.txt" &
  local b=$!
  wait "$a" "$b"

  local want got_a got_b
  want="$(grep -o 'asm_hash=0x[0-9a-f]*' "$dir/local.txt")"
  got_a="$(grep -o 'asm_hash=0x[0-9a-f]*' "$dir/remote_a.txt")"
  got_b="$(grep -o 'asm_hash=0x[0-9a-f]*' "$dir/remote_b.txt")"
  if [[ -z "$want" || "$want" != "$got_a" || "$want" != "$got_b" ]]; then
    echo "ci: daemon-compiled asm differs from the in-process compile" >&2
    diff <(echo "$want") <(echo "$got_a") >&2 || true
    diff <(echo "$want") <(echo "$got_b") >&2 || true
    kill "$pid" 2>/dev/null || true
    exit 1
  fi

  # Warm run through the daemon: the shared cache must serve everything.
  "$bin" compile --tiles 4 --quick --remote "$addr" > "$dir/warm.txt"
  if grep -qv "cache_misses=0 " "$dir/warm.txt"; then
    echo "ci: warm daemon run recompiled a block:" >&2
    cat "$dir/warm.txt" >&2
    kill "$pid" 2>/dev/null || true
    exit 1
  fi

  # Stats are served and accounted (3 compile clients seen so far): the
  # greppable summary line plus the raw-bench-compile row in the client
  # table.
  "$bin" serve --stats --addr "$addr" > "$dir/stats.txt"
  grep -q "^service stats requests=" "$dir/stats.txt"
  grep -qE "^ +raw-bench-compile " "$dir/stats.txt"

  # Clean shutdown: the daemon must exit 0 and leave no orphan behind.
  "$bin" serve --stop --addr "$addr"
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "ci: daemon did not exit after --stop" >&2
    kill -9 "$pid" 2>/dev/null || true
    exit 1
  fi
  wait "$pid"
  grep -q "shut down cleanly" "$dir/serve.txt"
  rm -rf "$dir"
}

stage_replay_smoke() {
  # Deterministic traffic replay against an in-process daemon: every
  # response byte-identical, warm phase 100% hits and >= 5x cold
  # throughput.
  cargo build --offline --release -p raw-bench
  local dir
  dir="$(mktemp -d)"
  target/release/raw-bench replay --tiles 4 --clients 2 --requests 40 \
    --check > "$dir/replay.txt"
  grep -q "replay phase=cold clients=2 " "$dir/replay.txt"
  grep -q "mismatches=0" "$dir/replay.txt"
  grep -q "replay check: hashes identical" "$dir/replay.txt"
  rm -rf "$dir"
}

stage_metrics_smoke() {
  # Telemetry end to end: start a daemon, drive it with a short replay, then
  # scrape both metrics renderings and validate them — Prometheus text
  # well-formed (every sample preceded by HELP/TYPE), JSON parseable, bucket
  # cumulatives monotone, and the counters conserved: the +Inf bucket of the
  # wall-time histogram must equal its _count, which must equal the served
  # compile-response counter, which must cover everything the replay sent.
  cargo build --offline --release -p raw-bench
  local bin=target/release/raw-bench
  local dir
  dir="$(mktemp -d)"

  "$bin" serve --addr 127.0.0.1:0 > "$dir/serve.txt" 2>&1 &
  local pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^rawcc-serve listening on //p' "$dir/serve.txt")"
    [[ -n "$addr" ]] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "ci: daemon died during startup:" >&2
      cat "$dir/serve.txt" >&2
      exit 1
    fi
    sleep 0.1
  done
  [[ -n "$addr" ]] || { echo "ci: daemon never printed its address" >&2; exit 1; }

  # Deterministic traffic (cold + warm phases against the shared daemon),
  # byte-checked against in-process reference compiles.
  "$bin" replay --addr "$addr" --tiles 4 --clients 2 --requests 20 \
    --quick --check --min-speedup 2 > "$dir/replay.txt"
  grep -q "mismatches=0" "$dir/replay.txt"

  # One live dashboard frame renders against the running daemon.
  "$bin" top --addr "$addr" --frames 1 --no-clear > "$dir/top.txt"
  grep -q "rawcc-serve @ " "$dir/top.txt"
  grep -q "latency " "$dir/top.txt"

  "$bin" serve --metrics-dump --addr "$addr" > "$dir/metrics.prom"
  "$bin" serve --metrics-json --addr "$addr" > "$dir/metrics.json"
  "$bin" serve --stop --addr "$addr"
  wait "$pid"

  python3 - "$dir/metrics.prom" "$dir/metrics.json" <<'PY'
import json, re, sys

prom_path, json_path = sys.argv[1], sys.argv[2]

# --- Prometheus text exposition: shape and conservation ---------------------
typed, helped, samples = set(), set(), {}
sample_re = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+(?:\.[0-9]+)?)$')
for line in open(prom_path):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# HELP "):
        helped.add(line.split()[2]); continue
    if line.startswith("# TYPE "):
        kind = line.split()[3]
        assert kind in ("counter", "gauge", "histogram"), line
        typed.add(line.split()[2]); continue
    m = sample_re.match(line)
    assert m, f"malformed sample line: {line!r}"
    samples[m.group(1) + (m.group(2) or "")] = float(m.group(3))
    base = re.sub(r'(_bucket|_sum|_count)$', '', m.group(1))
    assert base in typed and base in helped, f"sample without TYPE/HELP: {line!r}"

assert samples.get("rawcc_telemetry_enabled") == 1.0
served = samples['rawcc_compile_responses_total']
assert served >= 40, f"replay traffic not counted: served={served}"
assert samples['rawcc_requests_total{kind="compile"}'] >= served
wall_inf = samples['rawcc_compile_wall_us_bucket{le="+Inf"}']
wall_count = samples["rawcc_compile_wall_us_count"]
assert wall_inf == wall_count == served, \
    f"conservation: +Inf={wall_inf} _count={wall_count} served={served}"

# --- JSON exposition: parses, monotone cumulatives, count conservation ------
doc = json.load(open(json_path))
fams = {f["name"]: f for f in doc["families"]}
assert fams["rawcc_telemetry_enabled"]["series"][0]["value"] == 1.0
for fam in doc["families"]:
    assert fam["kind"] in ("counter", "gauge", "histogram"), fam["name"]
    for s in fam["series"]:
        if fam["kind"] != "histogram":
            continue
        cums = [c for _, c in s["buckets"]]
        assert all(a <= b for a, b in zip(cums, cums[1:])), \
            f"non-monotone buckets in {fam['name']}"
        # Finite buckets can undercount (overflow lives in +Inf) but
        # never overcount.
        assert (cums[-1] if cums else 0) <= s["count"], fam["name"]

jserved = fams["rawcc_compile_responses_total"]["series"][0]["value"]
jwall = fams["rawcc_compile_wall_us"]["series"][0]
# Counters are quiescent between the two scrapes (replay already done),
# so the formats must agree exactly.
assert jserved == served, f"prom/json disagree: {served} vs {jserved}"
assert jwall["count"] == jserved
phases = fams["rawcc_compile_phase_us"]["series"]
assert len(phases) == 8, f"expected 8 phase series, got {len(phases)}"
print(f"metrics_smoke: ok ({len(fams)} families, {served:.0f} compiles served)")
PY
  rm -rf "$dir"
}

stage_trace_smoke() {
  # --selfcheck makes raw-bench itself verify that tracing leaves the cycle
  # count bit-identical; the run also exercises every report renderer.
  local trace_dir
  trace_dir="$(mktemp -d)"
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    trace --bench mxm --tiles 4 --quick --selfcheck \
    --chrome "$trace_dir/mxm.trace.json" >/dev/null
  # The exported Chrome trace must parse as JSON with a non-empty
  # traceEvents array.
  python3 - "$trace_dir/mxm.trace.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty traceEvents"
assert any(e.get("ph") == "X" for e in events), "no duration events"
PY
  rm -rf "$trace_dir"
}

stage_annotate_smoke() {
  # The annotate command fails by itself if per-line attribution does not
  # sum exactly to the active-window cycle accounting.
  local annotate_dir
  annotate_dir="$(mktemp -d)"
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    annotate --quick --chrome "$annotate_dir/mxm.annotate.json" \
    > "$annotate_dir/annotate.txt"
  grep -q "cycles attributed ==" "$annotate_dir/annotate.txt"
  grep -q "placement audit" "$annotate_dir/annotate.txt"
  grep -q "top stall:" "$annotate_dir/annotate.txt"
  # Duration slices must carry source-provenance args (line/col/op) that
  # join the space-time trace back to the Mini-C source.
  python3 - "$annotate_dir/mxm.annotate.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
tagged = [e for e in events if "line" in e.get("args", {})]
assert tagged, "no provenance-tagged slices"
for e in tagged:
    args = e["args"]
    assert args["line"] >= 1 and args["col"] >= 1, f"bad span in {e}"
    assert isinstance(args["op"], str) and args["op"], f"missing op in {e}"
PY
  rm -rf "$annotate_dir"
}

stage_scenario_smoke() {
  # The scenario subcommand fails by itself on any differential mismatch:
  # masked tiles carrying code, stepper divergence (clean or chaos), traced
  # vs untraced drift, or a co-resident program whose result differs from
  # its solo run.
  local scenario_dir
  scenario_dir="$(mktemp -d)"
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    scenario --quick > "$scenario_dir/scenario.txt"
  grep -q "scenario pointer-chase " "$scenario_dir/scenario.txt"
  grep -q "^coresident " "$scenario_dir/scenario.txt"
  grep -q "all checks passed" "$scenario_dir/scenario.txt"
  # Masked compiles must be byte-identical across worker-thread counts.
  RAWCC_THREADS=1 cargo run --offline --release -p raw-bench --bin raw-bench -- \
    scenario --quick --bench gather > "$scenario_dir/t1.txt"
  RAWCC_THREADS=8 cargo run --offline --release -p raw-bench --bin raw-bench -- \
    scenario --quick --bench gather > "$scenario_dir/t8.txt"
  local t1_hashes t8_hashes
  t1_hashes="$(grep -o 'asm_hash=0x[0-9a-f]*' "$scenario_dir/t1.txt")"
  t8_hashes="$(grep -o 'asm_hash=0x[0-9a-f]*' "$scenario_dir/t8.txt")"
  if [[ -z "$t1_hashes" || "$t1_hashes" != "$t8_hashes" ]]; then
    echo "ci: masked compile asm differs across RAWCC_THREADS=1 vs =8" >&2
    diff <(echo "$t1_hashes") <(echo "$t8_hashes") >&2 || true
    exit 1
  fi
  rm -rf "$scenario_dir"
}

stage_sim_smoke() {
  # The sim subcommand's --selfcheck runs every sparse workload (plus a
  # compiled jacobi) under the production stepper and the reference oracle,
  # clean and under a chaos sweep, and fails on any divergence in cycles,
  # stats, or memory. The jacobi leg compiles through rawcc, so repeating
  # under both worker counts also guards the differential against
  # block-fan-out scheduling drift.
  RAWCC_THREADS=1 cargo run --offline --release -p raw-bench --bin raw-bench -- \
    sim --tiles 64 --selfcheck --quick >/dev/null
  RAWCC_THREADS=8 cargo run --offline --release -p raw-bench --bin raw-bench -- \
    sim --tiles 64 --selfcheck --quick >/dev/null
  # 256 tiles span four run-set words: chaos is cross-checked where a wake
  # can land in a later word than the sweep position.
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    sim --tiles 256 --selfcheck --quick >/dev/null
}

stage_trace_diff() {
  # Repeat the trace selfcheck on a control-flow-heavy kernel.
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    trace --bench life --tiles 4 --quick --selfcheck >/dev/null
}

stage_perf_smoke() {
  # perf/ is a workspace of its own, so the root build never compiles it: an
  # API break there would otherwise go unseen until the benchmark runs. Build
  # it against this tree and take two passes of every workload.
  #
  # Gated: the numbers that repeat exactly at seed 1 (sim_cycles,
  # speedup_geomean, code_words, and failed, the count of ops that did not
  # verify) must equal the committed perf/baseline/W.json. Only printed: the
  # time and memory metrics, which two passes cannot resolve
  # (perf/README.md, "Steadiness").
  cargo build --release --offline --manifest-path perf/Cargo.toml
  local dir
  dir="$(mktemp -d)"
  for workload in sim_dense sim_sparse compile_cold service_mix; do
    perf/target/release/raw-perf run --workload "$workload" --passes 2 \
      --out "$dir" > /dev/null
    python3 - "$workload" "$dir/$workload.json" "perf/baseline/$workload.json" <<'PY'
import json, sys

def values(path):
    doc = json.load(open(path))
    return {"failed": doc["failed"], **{m: v["value"] for m, v in doc["metrics"].items()}}

workload = sys.argv[1]
fresh, base = values(sys.argv[2]), values(sys.argv[3])
gated = ("sim_cycles", "speedup_geomean", "code_words", "failed")
bad = [m for m in gated if fresh[m] != base[m]]
for m in bad:
    print(f"ci: raw-perf {workload}: {m} = {fresh[m]!r}, baseline has {base[m]!r}",
          file=sys.stderr)
rest = ", ".join(f"{m} {fresh[m]:.3g} (baseline {base[m]:.3g})"
                 for m in fresh if m not in gated)
print(f"perf_smoke: {workload}: exact metrics {'DIFFER' if bad else 'match'}; not gated: {rest}")
sys.exit(1 if bad else 0)
PY
  done
  # The traced run includes the benchmark's own stepper probe: on every
  # benchmark program the default stepper, `with_event_stepper` and (on small
  # meshes) the reference must report the same cycle count.
  perf/target/release/raw-perf trace --workload sim_sparse --out "$dir" \
    > "$dir/trace.txt"
  rm -rf "$dir"
}

# ---------------------------------------------------------------- driver ----

selected=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --list)
      printf '%s\n' "${STAGES[@]}"
      exit 0
      ;;
    --only)
      [[ $# -ge 2 ]] || { echo "--only needs a stage name" >&2; exit 2; }
      found=0
      for s in "${STAGES[@]}"; do [[ "$s" == "$2" ]] && found=1; done
      if [[ "$found" != 1 ]]; then
        echo "unknown stage '$2' (try: ci.sh --list)" >&2
        exit 2
      fi
      selected+=("$2")
      shift 2
      ;;
    *)
      echo "unknown argument '$1' (modes: ci.sh | ci.sh --list | ci.sh --only STAGE)" >&2
      exit 2
      ;;
  esac
done
if [[ ${#selected[@]} -eq 0 ]]; then
  selected=("${STAGES[@]}")
fi

timing_names=()
timing_secs=()
for stage in "${selected[@]}"; do
  echo "==> $stage"
  t0=$SECONDS
  "stage_$stage"
  timing_names+=("$stage")
  timing_secs+=("$((SECONDS - t0))")
done

echo "ci: stage timings"
for i in "${!timing_names[@]}"; do
  printf '  %-16s %4ss\n' "${timing_names[$i]}" "${timing_secs[$i]}"
done
echo "ci: all green"
