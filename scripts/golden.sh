#!/usr/bin/env bash
# golden.sh — byte-exact regression gate on macawsim's canonical outputs.
#
# The simulator's determinism contract says every run is a pure function of
# (config, seed): same tables, same chaos report, same CSV, at any -jobs
# value, with or without the passive observers (-audit, -metrics,
# -tracejson). The golden files under testdata/golden/ pin those bytes; any
# diff is either a deliberate behaviour change (regenerate with `gen`) or a
# determinism/passivity regression (fix it).
#
# Usage:
#   scripts/golden.sh gen      regenerate testdata/golden/ from the current tree
#   scripts/golden.sh check    regenerate into a temp dir and diff against golden
#
# observers.sha256 pins the SHA-256 of the -metrics JSON and -tracejson JSONL
# of the fully instrumented tables run (-audit -metrics -tracejson), so the
# observer streams are held byte-exact too, not only consistent.
#
# check also verifies that -jobs 4 and the instrumented run reproduce the
# same table bytes, that the metrics and trace documents themselves are
# identical across -jobs values, and that the audited parameter sweep (two
# values of every delta kind) renders the same bytes at -jobs 1 and -jobs 4.
set -eu
cd "$(dirname "$0")/.."

golden="testdata/golden"
TABLES_ARGS="-total 12 -warmup 2 -seed 1"
CHAOS_ARGS="-chaos -total 8 -warmup 2 -seed 1"
CSV_ARGS="-table table2 -format csv -total 12 -warmup 2 -seed 1"
# Two values of every core.DeltaKinds() kind, each applied at the warmup
# barrier of a network warmed under the base configuration (DESIGN.md §15).
SWEEP_SPEC="backoff.min=2,4;backoff.max=32,64;mild.inc=1.5,2;mild.dec=1,2;load.rate=40,56;retry.limit=4,8;cw.min=7,15;cw.max=255,1023;retry.short=2,4;retry.long=2,4;tournament.window=16,32"
SWEEP_ARGS="-total 12 -warmup 4 -seed 1 -audit"

gen() {
    local dir="$1" sim="$2"
    mkdir -p "$dir"
    "$sim" $TABLES_ARGS > "$dir/tables.txt"
    "$sim" $CHAOS_ARGS > "$dir/chaos.txt"
    "$sim" $CSV_ARGS > "$dir/table2.csv"
    "$sim" -sweep "$SWEEP_SPEC" $SWEEP_ARGS > "$dir/sweep.txt" 2> /dev/null
    # The instrumented run: its tables stay in $tmp for check, its observer
    # documents are pinned by digest.
    "$sim" $TABLES_ARGS -audit -metrics "$tmp/metrics.json" -tracejson "$tmp/trace.jsonl" > "$tmp/tables.instr1.txt"
    (cd "$tmp" && sha256sum metrics.json trace.jsonl) > "$dir/observers.sha256"
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/macawsim" ./cmd/macawsim

case "${1:-}" in
gen)
    gen "$golden" "$tmp/macawsim"
    echo "regenerated $golden/"
    ;;
check)
    gen "$tmp/fresh" "$tmp/macawsim"
    for f in tables.txt chaos.txt table2.csv sweep.txt observers.sha256; do
        diff -u "$golden/$f" "$tmp/fresh/$f" ||
            { echo "FATAL: $f drifted from golden output" >&2; exit 1; }
    done

    # Parallelism must not change a byte.
    "$tmp/macawsim" $TABLES_ARGS -jobs 4 > "$tmp/tables.jobs4.txt"
    diff -u "$golden/tables.txt" "$tmp/tables.jobs4.txt" ||
        { echo "FATAL: -jobs 4 output differs from golden" >&2; exit 1; }
    "$tmp/macawsim" -sweep "$SWEEP_SPEC" $SWEEP_ARGS -jobs 4 > "$tmp/sweep.jobs4.txt" 2> /dev/null
    diff -u "$golden/sweep.txt" "$tmp/sweep.jobs4.txt" ||
        { echo "FATAL: -jobs 4 sweep output differs from golden" >&2; exit 1; }

    # Passive observers must not change a byte, and their own documents must
    # be identical at any parallelism.
    "$tmp/macawsim" $TABLES_ARGS -audit -metrics "$tmp/m4.json" -tracejson "$tmp/t4.jsonl" -jobs 4 > "$tmp/tables.instr4.txt"
    for f in tables.instr1.txt tables.instr4.txt; do
        diff -u "$golden/tables.txt" "$tmp/$f" ||
            { echo "FATAL: instrumented output ($f) differs from golden" >&2; exit 1; }
    done
    cmp "$tmp/metrics.json" "$tmp/m4.json" ||
        { echo "FATAL: -metrics JSON differs between -jobs 1 and 4" >&2; exit 1; }
    cmp "$tmp/trace.jsonl" "$tmp/t4.jsonl" ||
        { echo "FATAL: -tracejson JSONL differs between -jobs 1 and 4" >&2; exit 1; }

    # The metrics document must be valid JSON; the trace must summarize.
    if command -v python3 >/dev/null 2>&1; then
        python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$tmp/metrics.json" ||
            { echo "FATAL: -metrics output is not valid JSON" >&2; exit 1; }
    fi
    go build -o "$tmp/macawtrace" ./cmd/macawtrace
    "$tmp/macawtrace" -summarize "$tmp/trace.jsonl" > /dev/null ||
        { echo "FATAL: macawtrace -summarize failed on -tracejson output" >&2; exit 1; }

    echo "golden outputs verified (serial, -jobs 4, instrumented, observer digests, sweep)"
    ;;
*)
    echo "usage: scripts/golden.sh gen|check" >&2
    exit 2
    ;;
esac
