#!/usr/bin/env bash
# Smoke checks over the release binaries: one `cargo build --release`, then
# CLI, capture, telemetry, recovery, fuzz, quanta, sched and serve runs at
# reduced sizes.
# Each check exits nonzero on a violation; none gates on wall-clock speed.
#
#   bash scripts/smoke.sh
#
# The campaign binaries write their reports to results/BENCH_<name>.json;
# the committed captures they overwrite are restored on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
bin=target/release
work=$(mktemp -d)
reports=(fig3 fig4 fig5 table3 ablation ablation_error_modes recovery sched)
for name in "${reports[@]}"; do
    cp "results/BENCH_$name.json" "$work/"
done
daemon=
restore() {
    if [ -n "$daemon" ]; then kill "$daemon" 2>/dev/null || true; fi
    for name in "${reports[@]}"; do
        cp "$work/BENCH_$name.json" results/
    done
    rm -rf "$work"
}
trap restore EXIT

step() { printf '\n== %s\n' "$*"; }

# A report's wall time and thread count vary from run to run; every other
# byte is a function of the command. `pin` fails the script unless the two
# reports agree with those two fields masked.
masked() {
    sed -E 's/"wall_seconds":[0-9.]+/"wall_seconds":_/g; s/"threads":[0-9]+/"threads":_/g' "$1"
}
pin() {
    cmp <(masked "$1") <(masked "$2") || { echo "report $1 differs from $2" >&2; exit 1; }
}

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

# The committed text captures under results/ back the paper's figures; each
# of these regenerates from its command byte for byte, so a change that
# moves a figure fails here.
step "captures: all nine text captures match results/"
capture() {
    local file=$1 cmd=$2
    shift 2
    "$bin/$cmd" "$@" | cmp - "results/$file.txt"
}
capture table2 table2
capture table3 table3
capture fig3 fig3
capture fig4 fig4
capture fig5 fig5 --runs 20
capture ablation ablation --runs 10
capture ablation_modes ablation --error-modes --runs 10
capture tuning tuning
capture recovery recovery --runs 10 --amplify 40

# The same runs rewrote their reports; each must match the committed one.
# (The committed fig5 report is a --runs 3 run, pinned below.)
step "captures: the rewritten reports match results/"
for name in fig3 fig4 table3 ablation ablation_error_modes recovery; do
    pin "results/BENCH_$name.json" "$work/BENCH_$name.json"
done

# The captures rewrote these reports; each must read back through the
# reader beside its writer and re-render to the same bytes.
step "captures: the rewritten reports read back"
captured=()
for name in fig3 fig4 fig5 table3 ablation ablation_error_modes recovery; do
    captured+=(--report "results/BENCH_$name.json")
done
"$bin/validate_schema" "${captured[@]}"

step "quanta: fig5 at one thread"
"$bin/fig5" --runs 3 --threads 1 --fault-log "$work/fig5_t1.ndjson"
mv results/BENCH_fig5.json "$work/fig5_t1.json"
pin "$work/fig5_t1.json" "$work/BENCH_fig5.json"

step "telemetry: fig5 at two threads with progress and the fault log"
"$bin/fig5" --runs 3 --threads 2 --trace --fault-log "$work/fig5.ndjson"

# Fault-log lines come out in trial order, so the log is byte-identical at
# any thread count.
step "telemetry: the fault log matches the one-thread run's"
cmp "$work/fig5_t1.ndjson" "$work/fig5.ndjson"

# Integer quanta make campaign energy order-independent: the totals must
# be exactly equal across thread counts and with the fault log on, as
# 128-bit integers, not within a float tolerance.
step "telemetry + quanta: schemas, fault log, exact quanta equality"
"$bin/validate_schema" \
    --report "$work/fig5_t1.json" --report results/BENCH_fig5.json \
    --fault-log "$work/fig5.ndjson" \
    --quanta-compare "$work/fig5_t1.json" results/BENCH_fig5.json
"$bin/faultscope" results/BENCH_fig5.json --bits
"$bin/faultscope" "$work/fig5.ndjson"

# The tuner profiles each app once, however many budgets it tunes. A trial's
# fault events form one block of the log (events may repeat inside a trial),
# so a (trial, app, label, seed) block that recurs is a trial run twice.
step "tuning: every profiled trial appears once in the fault log"
"$bin/tuning" --runs 2 --fault-log "$work/tuning.ndjson" > /dev/null
repeated=$(sed -E 's/,"time":.*//' "$work/tuning.ndjson" | uniq | sort | uniq -d | wc -l)
[ "$repeated" -eq 0 ] || { echo "tuning: $repeated trial(s) profiled twice" >&2; exit 1; }

# Shape only: the Precise rung makes full recovery structural, and the
# binary itself reports the rescue rate.
step "recovery: sweep under chaos"
"$bin/recovery" --runs 3 --threads 2
"$bin/validate_schema" --report results/BENCH_recovery.json
"$bin/faultscope" --causes results/BENCH_recovery.json

# A watchdog trip unwinds out of whatever kernel is running, batched ones
# included, whose pooled buffers go back to their thread's pool on the way
# out. The one-thread run must match the two-thread report above, so
# nothing a trip leaves behind reaches a later trial or another thread.
step "recovery: one thread matches two"
cp results/BENCH_recovery.json "$work/recovery_t2.json"
"$bin/recovery" --runs 3 --threads 1 > /dev/null
pin "$work/recovery_t2.json" results/BENCH_recovery.json

# fuzzgen exits nonzero on any oracle violation; counterexamples are shrunk
# and printed.
step "fuzz: conformance campaign (500 cases, all five oracles)"
"$bin/fuzzgen" --cases 500 --seed 1 --shrink
step "fuzz: deep noninterference sweep (endorse-free, 8 chaos seeds)"
"$bin/fuzzgen" --cases 1000 --seed 2 --endorse-free --chaos-seeds 8 --shrink

step "sched: the full scheduled campaign matches results/"
"$bin/schedbench" --threads 2
pin results/BENCH_sched.json "$work/BENCH_sched.json"

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
state="$work/serve"
"$bin/campaignd" --addr 127.0.0.1:0 --state-dir "$state" --workers 2 > /dev/null &
daemon=$!
for _ in $(seq 1 100); do
    [ -s "$state/campaignd.addr" ] && break
    sleep 0.1
done
addr=$(cat "$state/campaignd.addr")
spec='{"schema":"enerj-serve/1","tenant":"smoke","apps":["MonteCarlo","FFT"],"levels":["Mild","Aggressive"],"runs":3,"chunk":2}'
for run in 1 2; do
    "$bin/campaignctl" submit --addr "$addr" --wait --stream --spec "$spec" > "$work/serve$run.ndjson"
done
lines=$(wc -l < "$work/serve1.ndjson")
[ "$lines" -eq 12 ] || { echo "serve: streamed $lines lines, expected 12" >&2; exit 1; }
zeroed=$(grep -c '"wall_seconds":0.000000,' "$work/serve1.ndjson" || true)
[ "$zeroed" -eq 12 ] || { echo "serve: $zeroed of 12 lines have a zeroed wall time" >&2; exit 1; }
cmp "$work/serve1.ndjson" "$work/serve2.ndjson"
"$bin/campaignctl" shutdown --addr "$addr"
wait "$daemon"
daemon=

# Each worker thread renders its chunks' lines with its own float-text
# memo: the stream of one worker must equal that of two, byte for byte.
step "serve: the same spec on a one-worker campaignd streams the same bytes"
state="$work/serve-one"
"$bin/campaignd" --addr 127.0.0.1:0 --state-dir "$state" --workers 1 > /dev/null &
daemon=$!
for _ in $(seq 1 100); do
    [ -s "$state/campaignd.addr" ] && break
    sleep 0.1
done
addr=$(cat "$state/campaignd.addr")
"$bin/campaignctl" submit --addr "$addr" --wait --stream --spec "$spec" > "$work/serve-one.ndjson"
cmp "$work/serve1.ndjson" "$work/serve-one.ndjson"
"$bin/campaignctl" shutdown --addr "$addr"
wait "$daemon"
daemon=

step "smoke: all checks passed"
