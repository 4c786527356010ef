#!/usr/bin/env bash
# The full repo gate: formatting, lints, tests, and the static safety
# verifier. CI and pre-merge checks run exactly this; a clean exit
# means the tree is mergeable.
set -euo pipefail
cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# Run CMD twice, byte-compare every `{out}` output between the runs,
# and install the first run's artifacts. Usage:
#
#   double_run_cmp NAME STRIP INSTALL CMD [ARG...]
#
#   NAME    label for tmp files and error messages
#   STRIP   `grep -v` pattern dropped from both sides before comparing
#           ("-" = compare verbatim) — the wall-clock `timing_` seam
#   INSTALL comma-separated destinations, one per `{out}` occurrence in
#           the command ("-" = that output is not installed)
#
# Every literal `{out}` argument becomes a per-run tmp path; the k-th
# occurrence pairs with the k-th INSTALL entry.
double_run_cmp() {
  local name="$1" strip="$2" install="$3"
  shift 3
  local outs1=() run1=() run2=()
  local idx=0 arg
  for arg in "$@"; do
    if [[ "$arg" == "{out}" ]]; then
      outs1+=("$tmpdir/$name.$idx.run1")
      run1+=("$tmpdir/$name.$idx.run1")
      run2+=("$tmpdir/$name.$idx.run2")
      idx=$((idx + 1))
    else
      run1+=("$arg")
      run2+=("$arg")
    fi
  done
  "${run1[@]}"
  "${run2[@]}"
  local dests=()
  IFS=',' read -r -a dests <<<"$install"
  local i a b
  for i in "${!outs1[@]}"; do
    a="${outs1[$i]}"
    b="$tmpdir/$name.$i.run2"
    if [[ "$strip" != "-" ]]; then
      grep -v "$strip" "$a" >"$a.stable"
      grep -v "$strip" "$b" >"$b.stable"
      a="$a.stable"
      b="$b.stable"
    fi
    cmp "$a" "$b" \
      || { echo "$name: output $i differs between same-seed runs"; exit 1; }
    if [[ "${dests[$i]:--}" != "-" ]]; then
      cp "${outs1[$i]}" "${dests[$i]}"
    fi
  done
}

# One short traced run of a benchmark workload; its exact counters
# (allocations, wire and table counts — no timings) go to OUT. The import
# refuses a run whose result is not `"correct":true`. Usage:
#
#   bench_counters WORKLOAD OUT
bench_counters() {
  local workload="$1" out="$2" dir
  dir="$(mktemp -d -p "$tmpdir")"
  bash benchmark/run.sh --workload "$workload" --trace 1 --seconds 2 --results "$dir" \
    >"$dir/run.log" || { cat "$dir/run.log"; exit 1; }
  cargo run --release -q -p peering-bench --bin perf_report -- \
    --import-exact "$dir/traced_$workload.json" "$out"
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Intra-doc links must resolve: a moved or privatized item cannot leave a
# dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> benchmark package (standalone; builds against the crates' public APIs)"
# benchmark/ is its own workspace, so the steps above never compile it:
# without this a public-API change that breaks it passes the gate.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

mkdir -p results

echo "==> telemetry smoke (snapshot validity + determinism)"
double_run_cmp telemetry - results/BENCH_telemetry.json \
  cargo run --release -q -p peering-bench --bin telemetry_smoke -- "{out}" 42

echo "==> collector smoke (MRT archive byte-determinism)"
double_run_cmp collector - results/BENCH_collector.json,- \
  cargo run --release -q -p peering-bench --bin collector_smoke -- "{out}" "{out}" 42

echo "==> abuse smoke (containment + bystander-isolation determinism)"
double_run_cmp abuse - results/BENCH_abuse.json \
  cargo run --release -q -p peering-bench --bin abuse_smoke -- "{out}" 42

echo "==> scale bench (full-scale fast path, profiler on; wall-clock keys stripped)"
double_run_cmp scale '"timing_' results/BENCH_scale.json \
  cargo run --release -q -p peering-bench --example scale_bench -- "{out}" 42 full 6

echo "==> mux scale bench (peer-group export engine; wall-clock keys stripped)"
double_run_cmp mux_scale '"timing_' results/BENCH_mux_scale.json \
  cargo run --release -q -p peering-bench --bin mux_scale_bench -- "{out}" 42

echo "==> peering-prof (engine profile -> Chrome trace, byte-deterministic)"
double_run_cmp trace - results/TRACE_engine.json \
  cargo run --release -q -p peering-bench --bin peering-prof -- "{out}" 42 small 2

echo "==> plan smoke (migration planner + chaos validation; wall-clock keys stripped)"
double_run_cmp plan '"timing_' results/BENCH_plan.json \
  cargo run --release -q -p peering-bench --bin plan_smoke -- "{out}" 42

echo "==> peering-lint (static safety verification)"
cargo run --release -q -p peering-verify --bin peering-lint

echo "==> peering-analyze (determinism & concurrency contract)"
# Not a double_run_cmp client: the second run exercises --quiet, so the
# invocations deliberately differ.
cargo run --release -q -p peering-analysis --bin peering-analyze -- \
  --root . --json "$tmpdir/analysis1.json"
cargo run --release -q -p peering-analysis --bin peering-analyze -- \
  --root . --json "$tmpdir/analysis2.json" --quiet
cmp "$tmpdir/analysis1.json" "$tmpdir/analysis2.json" \
  || { echo "analysis report differs between runs (nondeterministic analyzer)"; exit 1; }
cp "$tmpdir/analysis1.json" results/BENCH_analysis.json

echo "==> benchmark counters (router_feed traced: allocations, wire and table counts)"
double_run_cmp router_feed - results/BENCH_router_feed.json \
  bench_counters router_feed "{out}"

echo "==> benchmark counters (plan_catalog traced: allocations, sim time, faults, oracle checks)"
double_run_cmp plan_catalog - results/BENCH_plan_catalog.json \
  bench_counters plan_catalog "{out}"

echo "==> benchmark counters (internet_full_bringup traced: allocations, engine events, sim time)"
double_run_cmp internet_full_bringup - results/BENCH_internet_full_bringup.json \
  bench_counters internet_full_bringup "{out}"

echo "==> benchmark counters (internet_eval_table traced: allocations, engine events, sim time)"
double_run_cmp internet_eval_table - results/BENCH_internet_eval_table.json \
  bench_counters internet_eval_table "{out}"

echo "==> benchmark counters (internet_eval_table_par2 traced: the same plus epochs, cross-shard sends)"
double_run_cmp internet_eval_table_par2 - results/BENCH_internet_eval_table_par2.json \
  bench_counters internet_eval_table_par2 "{out}"

echo "==> benchmark counters (mux_tenant_churn traced: allocations, deliveries, decision runs, updates out, sim time)"
double_run_cmp mux_tenant_churn - results/BENCH_mux_tenant_churn.json \
  bench_counters mux_tenant_churn "{out}"

echo "==> benchmark counters (mux_upstream_fanout traced: the same, for the upstream-to-tenants direction)"
double_run_cmp mux_upstream_fanout - results/BENCH_mux_upstream_fanout.json \
  bench_counters mux_upstream_fanout "{out}"

echo "==> perf regression gate (BENCH suite vs checked-in baseline)"
double_run_cmp perf - results/BENCH_PERF.json \
  cargo run --release -q -p peering-bench --bin perf_report -- \
  "{out}" results results/BENCH_PERF_BASELINE.json

echo "==> loom model tests (shard barrier and cross-shard inbox interleavings)"
cargo test -q -p peering-netsim --features loom --test loom_barrier

echo "==> all checks passed"
