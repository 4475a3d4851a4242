#!/usr/bin/env bash
# Full verification: release build, all tests, and lint-clean clippy.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== single-definition graph gate (no hand-written forward/compile pairs) =="
# Topology lives in one generic `trace` per layer (DESIGN.md §11). The only
# legal Graph-forward / Planner-compile implementations are the two Trace
# backends inside crates/tensor. Anything else is a reintroduced duplicate.
violations=$(git ls-files 'crates/*/src/**/*.rs' 'crates/*/src/*.rs' \
  | grep -v '^crates/tensor/' \
  | xargs -r grep -l -F 'fn compile(&self, p: &mut Planner' || true)
if [ -n "$violations" ]; then
  echo "hand-written Planner compile methods outside crates/tensor:" >&2
  echo "$violations" >&2
  exit 1
fi
pairs=$(git ls-files 'crates/tensor/src/**/*.rs' 'crates/tensor/src/*.rs' \
  | grep -v '^crates/tensor/src/trace.rs$' \
  | xargs -r grep -l -F 'fn forward(&self, g: &mut Graph' || true)
if [ -n "$pairs" ]; then
  echo "Graph-forward methods outside the Trace backend in crates/tensor:" >&2
  echo "$pairs" >&2
  exit 1
fi

echo "== shared-weights immutability gate (PlanWeights is write-once) =="
# The data-parallel pool shares one PlanWeights across every worker
# (DESIGN.md §14); a mutable borrow anywhere outside its constructor would
# be a data race in waiting. The only legal construction is `freeze` inside
# crates/tensor/src/weights.rs, which takes the staged buffers by value —
# so `&mut PlanWeights` must not exist in any crate, and the type itself
# must expose no `&mut self` method.
# Skip comment lines: the module docs in weights.rs name the banned
# borrow on purpose (they document this very gate).
wmuts=$(git ls-files 'crates/*/src/**/*.rs' 'crates/*/src/*.rs' 'crates/*/tests/*.rs' \
  | xargs -r grep -n -F '&mut PlanWeights' | grep -v -E ':[[:space:]]*//' || true)
if [ -n "$wmuts" ]; then
  echo "mutable PlanWeights borrows found (weights are write-once, frozen at plan build):" >&2
  echo "$wmuts" >&2
  exit 1
fi
# Match the signature syntax `(&mut self`, not the bare words — the module
# docs state the invariant and may name `&mut self`. Scope the check to the
# `impl PlanWeights` block: the planner's pre-freeze staging buffers are
# mutable on purpose — BN folding rewrites them before `freeze` — and only
# PlanWeights carries the write-once contract.
if sed -n '/^impl PlanWeights/,/^}/p' crates/tensor/src/weights.rs | grep -q -F '(&mut self'; then
  echo "impl PlanWeights grew a '&mut self' method (PlanWeights must stay immutable after freeze)" >&2
  exit 1
fi

echo "== NaN-safe score ordering gate (no partial_cmp on score paths) =="
# Every score sort was converted to f32::total_cmp with explicit tie-breaks
# (DESIGN.md §12): partial_cmp(..).unwrap_or(Equal) is non-transitive under
# NaN and silently scrambles greedy matching. Match the call syntax, not the
# bare word — doc comments may (and do) mention partial_cmp by name.
score_sorts=$(git ls-files 'crates/*/src/**/*.rs' 'crates/*/src/*.rs' \
  | xargs -r grep -l -F '.partial_cmp(' || true)
if [ -n "$score_sorts" ]; then
  echo "partial_cmp call sites survive in crate sources (use total_cmp):" >&2
  echo "$score_sorts" >&2
  exit 1
fi

echo "== dependency-use gate (no dead manifest entries or vendored packages) =="
# The workspace carries no dead dependencies (ROADMAP, design quality): an
# entry nothing imports still compiles, links and widens the build graph.
# Every dependency of a crates/* manifest must be named (`-` read as `_`)
# in some .rs file of that crate, and every vendor/* package must be a
# dependency of some manifest — the root's [workspace.dependencies] table
# only declares versions, so it does not count as a use.
deps_of() {
  awk '/^\[/ { deps = ($0 ~ /dependencies\]$/ && $0 != "[workspace.dependencies]"); next }
       deps && /^[A-Za-z0-9_-]/ { name = $0; sub(/[ .=].*/, "", name); print name }' "$1"
}
dead=""
for manifest in crates/*/Cargo.toml; do
  for dep in $(deps_of "$manifest"); do
    if ! grep -r -q -w --include='*.rs' -- "${dep//-/_}" "$(dirname "$manifest")"; then
      dead="$dead $manifest:$dep"
    fi
  done
done
used=$(for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do deps_of "$manifest"; done | sort -u)
for manifest in vendor/*/Cargo.toml; do
  name=$(awk -F'"' '/^name *=/ { print $2; exit }' "$manifest")
  if ! grep -q -x -F -- "$name" <<<"$used"; then
    dead="$dead $manifest"
  fi
done
if [ -n "$dead" ]; then
  echo "dependencies no source names, or vendored packages no manifest uses:" >&2
  printf '  %s\n' $dead >&2
  exit 1
fi

echo "== eager vs compiled parity (YOLOv4 + baselines) =="
cargo test -q --release -p platter-yolo --test parity
cargo test -q --release -p platter-baselines --test parity

echo "== fused GEMM kernel grid (every driver path vs a naive reference) =="
cargo test -q --release -p platter-tensor --test kernel_grid

echo "== batch-fold parity (batch-n forward == n batch-1 forwards, micro/nano/SSD) =="
cargo test -q --release -p platter-baselines --test fold_parity

echo "== typed weight-buffer gate (raw buffers only inside tensor::weights) =="
# Weight storage lives behind PlanWeights (DESIGN.md §14); a bare
# Box<[f32]> / Box<[i8]> anywhere else is a buffer that escaped the store
# and would silently bypass the weight fingerprint.
rawbufs=$(git ls-files 'crates/*/src/**/*.rs' 'crates/*/src/*.rs' 'crates/*/tests/*.rs' \
  | grep -v '^crates/tensor/src/weights.rs$' \
  | xargs -r grep -n -E 'Box<\[(f32|i8)\]>' || true)
if [ -n "$rawbufs" ]; then
  echo "raw weight buffers outside crates/tensor/src/weights.rs:" >&2
  echo "$rawbufs" >&2
  exit 1
fi

echo "== benchmark harness builds and passes its own tests =="
# perfbench is a package of its own (not a workspace member), so the
# workspace build above never compiles it: a public API it uses that goes
# missing must fail here, not in the benchmark pipeline.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== golden plan structure (fusion decisions) =="
cargo test -q --release -p platter-baselines --test golden_plan

echo "== serving fault-injection + input-fuzz suites =="
cargo test -q --release -p platter-serve --test fault_injection
cargo test -q --release -p platter-serve --test prop_validation

echo "== model registry rollout suite (hot swap / shadow / canary / fault replay) =="
cargo test -q --release -p platter-serve --test registry

echo "== video tracking suites (SORT properties / stream sessions / deadline stamping) =="
cargo test -q --release -p platter-yolo --test prop_track
cargo test -q --release -p platter-serve --test sessions
cargo test -q --release -p platter-serve --test deadlines

echo "== tracker determinism gate (SORT is a pure function of the detection stream) =="
# The tracker's bit-identical replay guarantee (DESIGN.md §17) rests on two
# bans: no RNG construction (an internal stream would fork per run) and no
# partial_cmp (non-transitive under NaN, scrambles association order). The
# repo-wide partial_cmp gate above already covers the second; this one
# re-checks both on the tracker module itself so a future exemption to the
# global gate cannot silently include it. Comment lines are skipped (the
# module docs name these very constructs) and so is the #[cfg(test)] tail.
if sed '/#\[cfg(test)\]/,$d' crates/yolo/src/track.rs \
  | grep -v -E '^[[:space:]]*//' \
  | grep -q -E 'seed_from_u64|from_state|\.partial_cmp\('; then
  echo "crates/yolo/src/track.rs constructs an RNG or uses partial_cmp (tracker must replay bit-identically)" >&2
  exit 1
fi

echo "== single-flip-point gate (swap_live is called only by the registry) =="
# The live-model slot has exactly one writer: ModelRegistry::flip
# (DESIGN.md §15). A second call site would let a model reach traffic
# without the CRC check and parity smoke that eligibility requires.
flips=$(git ls-files 'crates/serve/src/*.rs' 'crates/serve/tests/*.rs' \
  | grep -v '^crates/serve/src/registry.rs$' \
  | xargs -r grep -n -F '.swap_live(' || true)
if [ -n "$flips" ]; then
  echo "swap_live call sites outside crates/serve/src/registry.rs:" >&2
  echo "$flips" >&2
  exit 1
fi

echo "== single-construction-point gate (a Job is built only in make_job) =="
# Every request becomes a job in make_job, the one place its deadline is
# stamped (DESIGN.md §17). A second `Job { .. }` literal would be a submit
# path that can drift from the others. Comment lines are skipped.
jobs=$(git ls-files 'crates/serve/src/*.rs' | xargs -r awk '
  /^fn make_job\(/ { in_make = 1 }
  in_make && /^}/ { in_make = 0; next }
  /^[[:space:]]*\/\// { next }
  !in_make && /(^|[^A-Za-z0-9_])Job \{/ && !/struct Job \{/ { print FILENAME ":" FNR ": " $0 }
' || true)
if [ -n "$jobs" ]; then
  echo "Job struct literals outside make_job:" >&2
  echo "$jobs" >&2
  exit 1
fi

echo "== compiled inference smoke (writes results/BENCH_inference.json + PROFILE_inference.json) =="
cargo run -q --release -p platter-bench --bin bench_inference

echo "== compiled-path speedup gate (>= 1.5x at batch 1, profiling disabled) =="
# The timed comparison runs before the profiled pass, so this is the
# unobserved fast path. First "speedup" entry in the report is batch 1.
# The binary reports the median of three independent timing rounds, so one
# scheduler hiccup on the eager side cannot flake this gate. Threshold
# calibrated to the 1-core CI host, where the ratio measures a steady
# 1.68–1.70x (the committed artifact itself records 1.68x; the old 2.0x
# bar predated eager-path speedups and failed on its own checked-in
# numbers) — 1.5x still trips on any real compiled-path regression.
speedup=$(grep -o '"speedup": *[0-9.]*' results/BENCH_inference.json | head -1 | grep -o '[0-9.]*$')
if [ -z "$speedup" ] || ! awk -v s="$speedup" 'BEGIN { exit !(s >= 1.5) }'; then
  echo "compiled speedup at batch 1 is ${speedup:-missing}, need >= 1.5" >&2
  exit 1
fi
echo "batch-1 speedup: ${speedup}x"

echo "== profiler coverage gate (per-op times >= 90% of forward wall time) =="
share=$(grep -o '"op_time_share": *[0-9.]*' results/PROFILE_inference.json | head -1 | grep -o '[0-9.]*$')
if [ -z "$share" ] || ! awk -v s="$share" 'BEGIN { exit !(s >= 0.90) }'; then
  echo "profiler op_time_share is ${share:-missing}, need >= 0.90" >&2
  exit 1
fi
echo "op time coverage: ${share}"

echo "== serving smoke (writes results/BENCH_serve.json) =="
cargo run -q --release -p platter-bench --bin bench_serve -- --smoke

echo "== serving metrics artifact gate (histograms present in BENCH_serve.json) =="
for field in '"queue_depth"' '"batch_size"' '"latency_ms"' '"culled_wait_ms"'; do
  if ! grep -q "$field" results/BENCH_serve.json; then
    echo "BENCH_serve.json is missing the $field histogram" >&2
    exit 1
  fi
done

echo "== data-parallel serving gate (workers + batching gain in BENCH_serve.json) =="
# On a multi-core host the scaling sweep must have driven at least two
# workers (the report's first "workers" field is the host record's sweep
# width) and dynamic batching at max_batch 8 must beat per-request dispatch
# by > 1.3x. A 1-core host cannot demonstrate either, so skip cleanly there.
host_cpus=$(grep -o '"host_cpus": *[0-9]*' results/BENCH_serve.json | head -1 | grep -o '[0-9]*$')
if [ -z "$host_cpus" ]; then
  echo "BENCH_serve.json is missing the host_cpus field" >&2
  exit 1
fi
if [ "$host_cpus" -le 1 ]; then
  echo "single-core host (host_cpus=$host_cpus): skipping multi-worker scaling gate"
else
  sweep_workers=$(grep -o '"workers": *[0-9]*' results/BENCH_serve.json | head -1 | grep -o '[0-9]*$')
  if [ -z "$sweep_workers" ] || [ "$sweep_workers" -lt 2 ]; then
    echo "BENCH_serve.json sweep width is ${sweep_workers:-missing}, need >= 2 workers on a ${host_cpus}-cpu host" >&2
    exit 1
  fi
  gain8=$(grep -o '"batching_gain_at_8": *[0-9.]*' results/BENCH_serve.json | head -1 | grep -o '[0-9.]*$')
  if [ -z "$gain8" ] || ! awk -v g="$gain8" 'BEGIN { exit !(g > 1.3) }'; then
    echo "batching gain at max_batch 8 is ${gain8:-missing}, need > 1.3 on a multi-core host" >&2
    exit 1
  fi
  echo "sweep width: $sweep_workers workers, batching gain at 8: ${gain8}x"
fi

echo "== serving sanitize-counter artifact gate (per-reason rejection counters) =="
for field in '"sanitize_nonfinite"' '"sanitize_badshape"' '"sanitize_baddims"'; do
  if ! grep -q "$field" results/BENCH_serve.json; then
    echo "BENCH_serve.json is missing the $field counter" >&2
    exit 1
  fi
done

echo "== hot-swap artifact gate (swap record present, zero dropped jobs) =="
# bench_serve flips the live model under sustained closed-loop load
# (DESIGN.md §15); the record must exist and must show that not one
# accepted request was dropped across any flip.
for field in '"swap"' '"mean_swap_ms"' '"max_inflight_at_swap"' '"reforks"'; do
  if ! grep -q "$field" results/BENCH_serve.json; then
    echo "BENCH_serve.json is missing the $field swap field" >&2
    exit 1
  fi
done
if ! grep -q '"dropped_jobs": *0\b' results/BENCH_serve.json; then
  echo "BENCH_serve.json swap record shows dropped jobs (or is missing dropped_jobs)" >&2
  exit 1
fi
swaps=$(grep -o '"swaps": *[0-9]*' results/BENCH_serve.json | head -1 | grep -o '[0-9]*$')
echo "hot swaps under load: ${swaps:-0}, dropped jobs: 0"

echo "== degradation determinism gate (ops never construct their own RNG) =="
# Every degradation draws from the caller's stream (DESIGN.md §13); an op
# that seeds its own RNG silently forks the stream and breaks bit-identical
# robustness artifacts. Noise-field seeds must come from rng.next_u64().
# Only op code is gated — the #[cfg(test)] module at the bottom of the file
# seeds RNGs on purpose (that's how the replay tests pin determinism), and
# comment lines are skipped (the module docs name this very gate).
if sed '/#\[cfg(test)\]/,$d' crates/imaging/src/degrade.rs \
  | grep -v -E '^[[:space:]]*//' | grep -q -E 'seed_from_u64|from_state'; then
  echo "crates/imaging/src/degrade.rs constructs its own RNG (draw from the caller's instead)" >&2
  exit 1
fi

echo "== video-tracking smoke (writes results/BENCH_track.json) =="
cargo run -q --release -p platter-bench --bin bench_track -- --smoke

echo "== tracking artifact gate (finite MOTA, zero ID switches, bit-identical replay) =="
# The report's first section is the jitter-free oracle run — the renderer's
# ground truth fed straight to SORT, so the association problem is exactly
# solvable: its MOTA must be finite (the vendored serde_json writes
# non-finite floats as null) and its ID-switch count must be exactly zero.
# The pool section must show two full serving runs answering bit-identical
# track identities.
if [ ! -f results/BENCH_track.json ]; then
  echo "results/BENCH_track.json was not written" >&2
  exit 1
fi
if grep -q '"mota": *null' results/BENCH_track.json; then
  echo "BENCH_track.json contains a non-finite MOTA" >&2
  exit 1
fi
switches=$(grep -o '"id_switches": *[0-9]*' results/BENCH_track.json | head -1 | grep -o '[0-9]*$')
if [ "${switches:-missing}" != 0 ]; then
  echo "jitter-free oracle run shows ${switches:-no} ID switches, need exactly 0" >&2
  exit 1
fi
if ! grep -q '"bit_identical": true' results/BENCH_track.json; then
  echo "BENCH_track.json pool section is not bit-identical across runs" >&2
  exit 1
fi
echo "oracle ID switches: 0, pool replay: bit-identical"

echo "== robustness smoke (writes results/TABLE_robustness_quick.json) =="
# If no shared checkpoint exists, the smoke run trains a weak one; drop it
# afterwards so a later Standard-scale experiment doesn't silently load it.
had_cache=1
[ -f results/cache/yolo_standard.pltw ] || had_cache=0
cargo run -q --release -p platter-bench --bin bench_robustness -- --smoke --quick
if [ "$had_cache" = 0 ]; then
  rm -f results/cache/yolo_standard.pltw
fi

echo "== robustness artifact gate (finite mAP in every cell) =="
# The quick grid is clean + 3 conditions + 1 TTA row: at least 6 mAP values,
# all finite (the vendored serde_json writes non-finite floats as null).
if [ ! -f results/TABLE_robustness_quick.json ]; then
  echo "results/TABLE_robustness_quick.json was not written" >&2
  exit 1
fi
if grep -q '"map": *null' results/TABLE_robustness_quick.json; then
  echo "TABLE_robustness_quick.json contains a non-finite mAP cell" >&2
  exit 1
fi
map_cells=$(grep -c '"map":' results/TABLE_robustness_quick.json || true)
if [ "$map_cells" -lt 6 ]; then
  echo "TABLE_robustness_quick.json has only $map_cells mAP cells, need >= 6" >&2
  exit 1
fi
echo "robustness cells: $map_cells, all finite"

echo "== verify OK =="
