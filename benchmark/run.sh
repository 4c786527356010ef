#!/usr/bin/env bash
# The benchmark's single entry point. Builds the package in release mode
# (offline; a no-op when nothing changed), then:
#
#   run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       one run of one workload in its own process; every metric is
#       printed by name with its unit, and the last line of stdout is the
#       JSON result (correct, attempted, failed, metrics). This is the
#       form BENCHMARK.json's command takes.
#   run.sh [--seed N] [--seconds S] [--traced]
#       every workload in turn, each in its own process.
#   run.sh --selfcheck [--seconds S]
#       two interleaved sets on the same commit and seed, each three
#       untraced runs and one traced run of every workload; fails unless
#       every exact metric is bit-equal in all runs and every bounded
#       metric's medians agree within its bound; then one untraced and
#       one traced run on seed 7, which must pass every output check.
#       Sets and their spread go to benchmark/results/selfcheck/.
#   run.sh --catalogue
#       print BENCHMARK.json as generated from the metric catalogue.
#
# Run it from the repository root (results go to benchmark/results/).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The driver sets CARGO_TARGET_DIR; cargo and the path below resolve a
# relative one against the same working directory.
target="${CARGO_TARGET_DIR:-$here/target}"

workload="" trace=0 mode=run
pass=()
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --seed | --seconds | --results) pass+=("$1" "$2"); shift 2 ;;
    --selfcheck) mode=selfcheck; shift ;;
    --catalogue) mode=catalogue; shift ;;
    *) echo "run.sh: unknown argument $1 (see the header of $0)" >&2; exit 2 ;;
  esac
done

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" >&2

# One run in its own process; the traced run has its own binary.
run_one() { # workload trace [extra args...]
  local bin=bench
  [[ "$2" == 1 ]] && bin=bench_traced
  "$target/release/$bin" --workload "$1" --trace "$2" "${@:3}"
}

# One run, printed; fails if it failed or an output check in it did.
checked_run() { # workload trace [extra args...]
  local out
  out="$(run_one "$@")" || return 1
  printf '%s\n' "$out"
  [[ "$(tail -n 1 <<<"$out")" == *'"correct":true'* ]]
}

workloads() { "$target/release/bench" list; }

# Every workload in turn; fails if any run did.
run_set() { # trace [extra args...]
  local w ok=0
  for w in $(workloads); do
    checked_run "$w" "$@" || ok=1
  done
  return $ok
}

case "$mode" in
  catalogue)
    "$target/release/bench" catalogue
    ;;
  run)
    if [[ -n "$workload" ]]; then
      run_one "$workload" "$trace" ${pass[@]+"${pass[@]}"}
    else
      run_set "$trace" ${pass[@]+"${pass[@]}"}
    fi
    ;;
  selfcheck)
    out="$here/results/selfcheck"
    rm -rf "$out"
    mkdir -p "$out"
    check() { # set-or-label, run_one's arguments
      checked_run "${@:2}" ${pass[@]+"${pass[@]}"} >"$out/last.log" 2>&1 \
        || { cat "$out/last.log"; echo "selfcheck: run failed ($1: $2)"; exit 1; }
    }
    # The two sets are interleaved run by run, and which goes first
    # alternates, so a slow spell of the machine (they last minutes)
    # lands on both.
    for run in 1 2 3; do
      sets=(first second)
      ((run % 2)) || sets=(second first)
      for w in $(workloads); do
        for set in "${sets[@]}"; do
          check "$set" "$w" 0 --seed 42 --results "$out/$set/run$run"
          ((run > 1)) || check "$set" "$w" 1 --seed 42 --results "$out/$set/run$run"
        done
      done
    done
    for w in $(workloads); do
      for t in 0 1; do
        check "seed 7" "$w" "$t" --seed 7 --results "$out/seed7"
      done
    done
    rm -f "$out/last.log"
    "$target/release/bench" compare "$out/first" "$out/second" "$out"
    ;;
esac
