#!/usr/bin/env bash
# Smoke checks over the release binaries: one `cargo build --release`, then
# CLI, telemetry, tuning, recovery, fuzz, sched and serve runs at reduced
# sizes. The results/ captures are pinned by `cargo test`
# (crates/bench/tests/captures.rs), not here.
# Each check exits nonzero on a violation; none gates on wall-clock speed.
#
#   bash scripts/smoke.sh
#
# Every binary runs in a scratch directory, so the reports the campaign
# binaries write to results/BENCH_<name>.json land there: the tree is never
# written, even by a run killed halfway.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
bin=$PWD/target/release
work=$(mktemp -d)
daemon=
cleanup() {
    if [ -n "$daemon" ]; then kill "$daemon" 2>/dev/null || true; fi
    rm -rf "$work"
}
trap cleanup EXIT
mkdir "$work/results"
cd "$work"

step() { printf '\n== %s\n' "$*"; }

# Fails the script unless the command exits 2, the usage-error status (a
# panic exits 101).
reject() {
    local status=0
    "$@" > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "expected a usage error (exit 2), got exit $status: $*" >&2
        exit 1
    fi
}

# The bench CLI and fuzzgen refuse what they do not know instead of running
# with a default: an unknown or retired flag, a zero run count, a mode flag
# value the binary cannot use and a fuzz campaign that would check nothing
# (no cases, or oracle 4 with no chaos seeds) must all exit nonzero.
step "cli: unknown flags and zero counts are usage errors"
reject "$bin/fig5" --runs 1 --deadline-secs 1
reject "$bin/fig5" --runs 0
reject "$bin/fig5" --runs 1 --json
reject "$bin/recovery" --runs 1 --amplify x
reject "$bin/recovery" --runs 1 --amplify 0.5
reject "$bin/schedbench" --quick --budget-pct abc
reject "$bin/schedbench" --quick --meter foo
reject "$bin/fuzzgen" --cases 0
reject "$bin/fuzzgen" --chaos-seeds 0
reject "$bin/fuzzgen" --no-such-flag

# Fault-log lines come out in trial order, so the log is byte-identical at
# any thread count.
step "telemetry: fig5's fault log is the same at one and two threads"
"$bin/fig5" --runs 3 --threads 1 --fault-log fig5_t1.ndjson
"$bin/fig5" --runs 3 --threads 2 --trace --fault-log fig5.ndjson
cmp fig5_t1.ndjson fig5.ndjson

step "telemetry: schemas and fault breakdowns"
"$bin/validate_schema" --report results/BENCH_fig5.json --fault-log fig5.ndjson
"$bin/faultscope" results/BENCH_fig5.json --bits
"$bin/faultscope" fig5.ndjson

# The tuner profiles each app once, however many budgets it tunes. A trial's
# fault events form one block of the log (events may repeat inside a trial),
# so a (trial, app, label, seed) block that recurs is a trial run twice.
step "tuning: every profiled trial appears once in the fault log"
"$bin/tuning" --runs 2 --fault-log tuning.ndjson > /dev/null
repeated=$(sed -E 's/,"time":.*//' tuning.ndjson | uniq | sort | uniq -d | wc -l)
[ "$repeated" -eq 0 ] || { echo "tuning: $repeated trial(s) profiled twice" >&2; exit 1; }

# Shape only: the Precise rung makes full recovery structural, and the
# binary itself reports the rescue rate.
step "recovery: sweep under chaos"
"$bin/recovery" --runs 3 --threads 2
"$bin/validate_schema" --report results/BENCH_recovery.json
"$bin/faultscope" --causes results/BENCH_recovery.json

# fuzzgen exits nonzero on any oracle violation; counterexamples are shrunk
# and printed.
step "fuzz: conformance campaign (500 cases, all five oracles)"
"$bin/fuzzgen" --cases 500 --seed 1 --shrink
step "fuzz: deep noninterference sweep (endorse-free, 8 chaos seeds)"
"$bin/fuzzgen" --cases 1000 --seed 2 --endorse-free --chaos-seeds 8 --shrink

# schedbench re-runs the scheduled campaign at one and two worker threads
# internally and exits nonzero unless every run is bit-identical. QoS
# margins depend on trial counts, so nothing gates on scheduler-vs-static.
step "sched: budget scheduler at one and two threads"
"$bin/schedbench" --quick --threads 1
"$bin/schedbench" --quick --threads 2
"$bin/validate_schema" --sched results/BENCH_sched.json

# A real daemon on a temp state dir: a 2-app job streamed to the end, the
# same spec again, then a drain that must answer and exit 0. Gates on the
# exit status, the line count, every line's zeroed wall time and the two
# streams being byte-identical (the service's determinism contract).
step "serve: campaignd submit --wait --stream twice, then shutdown"
state=serve
"$bin/campaignd" --addr 127.0.0.1:0 --state-dir "$state" --workers 2 > /dev/null &
daemon=$!
for _ in $(seq 1 100); do
    [ -s "$state/campaignd.addr" ] && break
    sleep 0.1
done
addr=$(cat "$state/campaignd.addr")
spec='{"schema":"enerj-serve/1","tenant":"smoke","apps":["MonteCarlo","FFT"],"levels":["Mild","Aggressive"],"runs":3,"chunk":2}'
for run in 1 2; do
    "$bin/campaignctl" submit --addr "$addr" --wait --stream --spec "$spec" > "serve$run.ndjson"
done
lines=$(wc -l < serve1.ndjson)
[ "$lines" -eq 12 ] || { echo "serve: streamed $lines lines, expected 12" >&2; exit 1; }
zeroed=$(grep -c '"wall_seconds":0.000000,' serve1.ndjson || true)
[ "$zeroed" -eq 12 ] || { echo "serve: $zeroed of 12 lines have a zeroed wall time" >&2; exit 1; }
cmp serve1.ndjson serve2.ndjson
"$bin/campaignctl" shutdown --addr "$addr"
wait "$daemon"
daemon=

# Each worker thread renders its chunks' lines with its own float-text
# memo: the stream of one worker must equal that of two, byte for byte.
step "serve: the same spec on a one-worker campaignd streams the same bytes"
state=serve-one
"$bin/campaignd" --addr 127.0.0.1:0 --state-dir "$state" --workers 1 > /dev/null &
daemon=$!
for _ in $(seq 1 100); do
    [ -s "$state/campaignd.addr" ] && break
    sleep 0.1
done
addr=$(cat "$state/campaignd.addr")
"$bin/campaignctl" submit --addr "$addr" --wait --stream --spec "$spec" > serve-one.ndjson
cmp serve1.ndjson serve-one.ndjson
"$bin/campaignctl" shutdown --addr "$addr"
wait "$daemon"
daemon=

step "smoke: all checks passed"
