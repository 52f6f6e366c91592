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

STAGES=(fmt clippy doc build test cache_smoke
  exact_smoke service_smoke replay_smoke metrics_smoke trace_smoke
  scenario_smoke sim_smoke perf_smoke)

stage_fmt() {
  cargo fmt --all -- --check
}

stage_clippy() {
  cargo clippy --offline --workspace --all-targets -- -D warnings
  # One oracle: the reference stepper is reached only through
  # raw_machine::oracle (raw_trace::oracle::check for compiled programs), so
  # no hand-rolled stepper differential can grow back outside the machine.
  local copies
  copies="$(grep -rn 'with_reference_stepper()' crates tests examples --include='*.rs' \
    | grep -v '^crates/machine/src/' || true)"
  if [[ -n "$copies" ]]; then
    echo "ci: call the oracle instead of with_reference_stepper():" >&2
    echo "$copies" >&2
    exit 1
  fi
  # One static-reference analysis: the unroller and lowering ask
  # crates/lang/src/affine.rs, so no second copy of its folding, trip-count,
  # home or index-split arithmetic can drift away from the first.
  local forks
  forks="$(grep -rnE 'fn (const_eval|affine_coeff|trip_count|repetition_distance|split)\b' \
    crates tests examples --include='*.rs' | grep -v '^crates/lang/src/affine.rs:' || true)"
  if [[ -n "$forks" ]]; then
    echo "ci: use crates/lang/src/affine.rs instead of redefining it:" >&2
    echo "$forks" >&2
    exit 1
  fi
  # Names resolve once, at parse: the frontend interns each spelling as a
  # Sym and every later table is indexed by it, so no string-keyed map can
  # grow back in the unroller or lowering.
  local names
  names="$(grep -rn 'HashMap<String' crates/lang/src --include='*.rs' || true)"
  if [[ -n "$names" ]]; then
    echo "ci: resolve names at parse (ast::Sym) instead of keying a map by String:" >&2
    echo "$names" >&2
    exit 1
  fi
  # One stall record: the simulator, its statistics and every report speak
  # raw_machine::trace::{StallReason, Stall}, so no second stall enum, sink
  # method or event variant can grow back beside them.
  local stalls
  stalls="$(grep -rnwE 'stall_span|StallSpan|StallCause' crates tests examples \
    --include='*.rs' || true)"
  if [[ -n "$stalls" ]]; then
    echo "ci: use StallReason and the one Stall range record instead:" >&2
    echo "$stalls" >&2
    exit 1
  fi
  # One codec: every byte of the cache key, the disk entries and the wire
  # protocol is declared once, as a Codec impl in crates/core/src/codec.rs,
  # so no second hand-paired encoder or decoder can grow back beside it. A
  # put_/get_ function counts when its signature takes or returns the
  # encoder's Vec<u8> or the decoder.
  local codecs
  codecs="$(find crates -name '*.rs' ! -path crates/core/src/codec.rs -print0 \
    | xargs -0 perl -0777 -ne 'print "$ARGV: $1\n" while
        /(impl Codec for|Dec::new\(|fn (?:put|get)_\w*[^{;]*?(?:Vec<u8>|Dec<))/g')"
  if [[ -n "$codecs" ]]; then
    echo "ci: declare encodings as Codec impls in crates/core/src/codec.rs:" >&2
    echo "$codecs" >&2
    exit 1
  fi
  # One content hash: the cache key, the memo key and the disk checksum are
  # codec::hash128, so no byte-serial FNV pass can grow back on a hot path.
  # FNV (raw_testkit::hash64) stays the golden fingerprint: in the
  # compiler's own code it hashes only driver::asm_hash's text; unit tests
  # (each file's trailing #[cfg(test)] module) may pin bytes with it.
  local fnv
  fnv="$(find crates/core/src -name '*.rs' -print0 \
    | xargs -0 perl -0777 -ne 's/\n#\[cfg\(test\)\]\nmod tests \{.*//s;
        s/\npub fn asm_hash\(.*?\n\}\n/\n/s if $ARGV =~ m{/driver\.rs$};
        print "$ARGV: $1\n" while /\b(hash64(?:_with)?)\b/g')"
  if [[ -n "$fnv" ]]; then
    echo "ci: content-hash with codec::hash128 (FNV is for asm_hash and golden pins):" >&2
    echo "$fnv" >&2
    exit 1
  fi
  # One request path: the daemon writes every reply at one site (the other
  # write_frame( is Client::roundtrip) and builds every span at one site, so
  # panic isolation, deadlines and connection caps each wrap one place.
  local writes spans
  writes="$(grep -c 'write_frame(' crates/core/src/service.rs || true)"
  spans="$(grep -c 'SpanRecord {' crates/core/src/service.rs || true)"
  if (( writes > 2 || spans > 1 )); then
    echo "ci: crates/core/src/service.rs has $writes write_frame( sites (max 2) and" \
      "$spans SpanRecord literals (max 1); answer through ServerState::respond" >&2
    exit 1
  fi
  # One placement search: greedy swap (with None as the ablation), refined
  # only by the exact solver, so no second placement heuristic or lane race
  # can grow back beside it.
  local searches
  searches="$(grep -rnE 'PlacementAlgorithm::Annealing|lane_rank|fn block_options|--anneal' \
    crates tests examples --include='*.rs' || true)"
  if [[ -n "$searches" ]]; then
    echo "ci: place with greedy swap and refine with the exact solver instead:" >&2
    echo "$searches" >&2
    exit 1
  fi
  # One command per question in raw-bench: host time is raw-perf's (perf/),
  # and the per-line listing is a section of `trace`, so no timing mode,
  # thread sweep or second tracing subcommand can grow back beside them.
  local clocks
  clocks="$(grep -rnE '"annotate" =>|fn table_command|fn time_run|ns_per_cycle' \
    crates/bench/src || true)"
  if [[ -n "$clocks" ]]; then
    echo "ci: measure host time with raw-perf and annotate through trace instead:" >&2
    echo "$clocks" >&2
    exit 1
  fi
  # One metrics exposition: the daemon renders Prometheus text and
  # raw_telemetry::Snapshot::parse_prometheus reads it back, so no second
  # rendering, scrape flag or host-time table in trace can grow back.
  local expositions
  expositions="$(grep -rnE 'render_json|MetricsFormat::Json|--metrics-json|fn phase_table' \
    crates tests examples --include='*.rs' || true)"
  if [[ -n "$expositions" ]]; then
    echo "ci: render metrics only as Prometheus text (read back by Snapshot::parse_prometheus)" \
      "and leave compile host time to raw-perf:" >&2
    echo "$expositions" >&2
    exit 1
  fi
  # One route value: a switch route is raw_machine::isa::RoutePairs from
  # the scheduler through the bundle, the ISA and the assembler to the trace,
  # so no second pair list or bounded pair type can grow back beside it.
  local routes
  routes="$(grep -rnF 'Vec<(SSrc, SDst)>' crates/*/src --include='*.rs' || true
    grep -rnw 'struct RoutePairs' crates/*/src --include='*.rs' \
      | grep -v '^crates/machine/src/isa.rs:' || true)"
  if [[ -n "$routes" ]]; then
    echo "ci: hold switch routes as raw_machine::isa::RoutePairs:" >&2
    echo "$routes" >&2
    exit 1
  fi
  # Every setting is an argument: the compiler and the daemon read no
  # environment variable. Only the test harness (golden updates, property
  # test knobs in crates/testkit) may.
  local envs
  envs="$(grep -rnE 'env::var(_os)?\(' crates/*/src --include='*.rs' \
    | grep -v '^crates/testkit/src/' || true)"
  if [[ -n "$envs" ]]; then
    echo "ci: pass settings as options or flags, not environment variables:" >&2
    echo "$envs" >&2
    exit 1
  fi
}

stage_doc() {
  RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet
}

stage_build() {
  cargo build --offline --release
  cargo build --offline --release --workspace --examples
}

stage_test() {
  # Thread invariance is asserted by name (tests/parallel_determinism.rs,
  # golden_snapshots' big-block hashes at 1 and 8 workers), so one run does.
  cargo test --offline --workspace -q
  # The compiler's word and shift arithmetic once more as it ships: release
  # builds wrap on overflow and compile out debug assertions.
  cargo test --offline --release -p rawcc --lib -q
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
  # Exact-solver oracle: the gap table's built-in assertion (no heuristic ever
  # beats a certified optimum) must hold; --gap-table exits nonzero if one
  # does. Exact-strategy thread invariance is tests/parallel_determinism.rs.
  local dir
  dir="$(mktemp -d)"
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
  # scrape its one rendering and validate it — Prometheus text well-formed
  # (every sample preceded by HELP/TYPE), bucket cumulatives monotone, and
  # the counters conserved: the +Inf bucket of the wall-time histogram must
  # equal its _count, which must equal the served compile-response counter,
  # which must cover everything the replay sent.
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
  "$bin" serve --stop --addr "$addr"
  wait "$pid"

  python3 - "$dir/metrics.prom" <<'PY'
import re, sys

prom_path = sys.argv[1]

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

buckets = {}
for series, value in samples.items():
    m = re.match(r'^(\w+)_bucket\{(.*)le="[^"]*"\}$', series)
    if m:
        buckets.setdefault(m.groups(), []).append(value)
for key, cums in buckets.items():
    assert all(a <= b for a, b in zip(cums, cums[1:])), f"non-monotone buckets in {key}"
phases = {k for k in samples if k.startswith("rawcc_compile_phase_us_count{")}
assert len(phases) == 8, f"expected 8 phase series, got {len(phases)}"
print(f"metrics_smoke: ok ({len(typed)} families, {served:.0f} compiles served)")
PY
  rm -rf "$dir"
}

stage_trace_smoke() {
  # --selfcheck runs the oracle lane (interpreter, reference stepper, traced
  # vs untraced); the runs also exercise every report renderer, on a matmul
  # and on two control-flow-heavy kernels (tomcatv at 16 tiles is the one
  # whose idle processors skip most branch regions), plus vpenta, whose
  # `X[i][N1 - j]` references have a negative index part.
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    trace --bench life --tiles 4 --quick --selfcheck >/dev/null
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    trace --bench tomcatv --tiles 16 --quick --selfcheck >/dev/null
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    trace --bench vpenta --tiles 16 --quick --selfcheck >/dev/null
  # The mxm run also checks the per-line listing: trace fails by itself if
  # attribution does not sum exactly to the active-window cycle accounting.
  local trace_dir
  trace_dir="$(mktemp -d)"
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    trace --bench mxm --tiles 4 --quick --selfcheck \
    --chrome "$trace_dir/mxm.trace.json" > "$trace_dir/mxm.txt"
  grep -q "cycles attributed ==" "$trace_dir/mxm.txt"
  grep -q "placement audit" "$trace_dir/mxm.txt"
  grep -q "top stall:" "$trace_dir/mxm.txt"
  # The exported Chrome trace must parse as JSON with duration events, and
  # its slices must carry source-provenance args (line/col/op) that join the
  # space-time trace back to the Mini-C source.
  python3 - "$trace_dir/mxm.trace.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty traceEvents"
assert any(e.get("ph") == "X" for e in events), "no duration events"
tagged = [e for e in events if "line" in e.get("args", {})]
assert tagged, "no provenance-tagged slices"
for e in tagged:
    args = e["args"]
    assert args["line"] >= 1 and args["col"] >= 1, f"bad span in {e}"
    assert isinstance(args["op"], str) and args["op"], f"missing op in {e}"
PY
  rm -rf "$trace_dir"
}

stage_scenario_smoke() {
  # The scenario subcommand fails by itself on any differential mismatch:
  # any property of the oracle lane (masked tiles carrying code, interpreter
  # mismatch, stepper divergence or traced vs untraced drift, clean or under
  # chaos), or a co-resident program whose result differs from its solo run.
  local scenario_dir
  scenario_dir="$(mktemp -d)"
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    scenario --quick > "$scenario_dir/scenario.txt"
  grep -q "scenario pointer-chase " "$scenario_dir/scenario.txt"
  grep -q "^coresident " "$scenario_dir/scenario.txt"
  grep -q "all checks passed" "$scenario_dir/scenario.txt"
  rm -rf "$scenario_dir"
}

stage_sim_smoke() {
  # The sim subcommand runs every sparse workload (plus a compiled jacobi)
  # under the production stepper and the reference oracle, clean and under a
  # chaos sweep, and fails on any divergence in cycles, stats, or memory.
  # 16 tiles is the dense 4x4 regime the compiled jacobi runs in; every line
  # carries the production run's work counters.
  local sim_out
  sim_out="$(cargo run --offline --release -p raw-bench --bin raw-bench -- \
    sim --tiles 16 --quick)"
  for field in proc_steps switch_steps restalls timers_popped timers_stale \
    channel_commits; do
    grep -q "^sim jacobi tiles=16 .* $field=[0-9]" <<< "$sim_out" || {
      echo "ci: sim --tiles 16 prints no $field counter" >&2
      return 1
    }
  done
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    sim --tiles 64 --quick >/dev/null
  # 256 tiles span four run-set words: chaos is cross-checked where a wake
  # can land in a later word than the sweep position.
  cargo run --offline --release -p raw-bench --bin raw-bench -- \
    sim --tiles 256 --quick >/dev/null
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
  # (perf/README.md, "Steadiness"). Every workload gets its verdict line and
  # the trace step runs before the stage fails, so one stale baseline hides
  # no other.
  cargo build --release --offline --manifest-path perf/Cargo.toml
  local dir differ=()
  dir="$(mktemp -d)"
  for workload in sim_dense sim_sparse compile_cold service_mix; do
    perf/target/release/raw-perf run --workload "$workload" --passes 2 \
      --out "$dir" > /dev/null
    python3 - "$workload" "$dir/$workload.json" "perf/baseline/$workload.json" \
      <<'PY' || differ+=("$workload")
import json, sys

def values(path):
    doc = json.load(open(path))
    return {"failed": doc["failed"], **{m: v["value"] for m, v in doc["metrics"].items()}}

workload = sys.argv[1]
fresh, base = values(sys.argv[2]), values(sys.argv[3])
gated = ("sim_cycles", "speedup_geomean", "code_words", "failed")
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
better["failed"] = "lower"
bad = [m for m in gated if fresh[m] != base[m]]
for m in bad:
    change = f"{(fresh[m] - base[m]) / abs(base[m]):+.2%}" if base[m] else "from 0"
    verdict = "better" if (fresh[m] < base[m]) == (better[m] == "lower") else "worse"
    print(f"ci: raw-perf {workload}: {m} = {fresh[m]!r}, baseline has {base[m]!r} "
          f"({change}, {verdict})", file=sys.stderr)
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
  if (( ${#differ[@]} > 0 )); then
    echo "ci: raw-perf exact metrics differ from perf/baseline on: ${differ[*]}" >&2
    exit 1
  fi
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
