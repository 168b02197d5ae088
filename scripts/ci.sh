#!/usr/bin/env bash
# Staged local CI gate: everything a change must pass before it lands.
#
# Stages, in order:
#
#    1. build        release build of the whole workspace
#    2. test         every workspace test, then the benchmark package's
#                    own tests (with ELANIB_* cleared), so a workspace
#                    API change that breaks the benchmark fails here
#    3. fmt          cargo fmt --check (the tree is kept format-clean)
#    4. clippy       warnings promoted to errors
#    5. manifest     results/MANIFEST.sha256 must match the committed
#                    CSVs exactly (stale or hand-edited exhibits fail
#                    fast, before any simulation runs)
#    6. regen        exhibit-determinism smoke (regen_all.sh --smoke)
#    7. backend-matrix
#                    one-network-per-run gate: the fig2 smoke exhibit
#                    reruns under every Network registry name via
#                    ELANIB_BACKEND (hca, elan, roce-pfc, roce-dcqcn,
#                    roce-hybrid). The two paper networks must
#                    reproduce their committed fig2 columns byte for
#                    byte even when routed through the override
#                    machinery; the three RoCE modes must complete
#                    cleanly. Per-backend wall times land in
#                    ci_summary.json
#    8. conformance  paper-shape validation: expectations/*.toml vs the
#                    committed results/ and exhibit coverage
#    9. bench-counts deterministic per-layer count gate: one traced run
#                    of the repository benchmark (BENCHMARK.json's
#                    command) per workload at seed 0, compared by the
#                    benchmark's own --compare with the committed
#                    scripts/benchmark_counts.jsonl; any differing
#                    event, wake, task, MPI, NIC or fabric count fails
#   10. report       perf dashboard: elanib-report renders stage 9's
#                    benchmark records and the conformance verdict into
#                    perf_report.md / perf_report.json (renders only)
#   11. perf-gate    kernelbench alone: it fails the stage when its
#                    calls/pingpong/model scenarios allocate more per
#                    event than their deterministic budgets, or when any
#                    scenario runs more than 2x below its best events/s
#                    on record
#   12. faults       fault-matrix smoke (loss + outage plans terminate)
#   13. zero-fault   a rate-zero fault plan regenerates every CSV
#                    byte-identically (full regen_all.sh)
#   14. fuzz         time-boxed property fuzz: seeded random scenarios
#                    through both stacks with every cross-cutting
#                    invariant checked (elanib-fuzz); a violation
#                    fails the stage and prints the shrunk repro path
#
# Every exhibit invocation runs under the ELANIB_REGEN_TIMEOUT watchdog
# (default 300 s) so a livelocked simulation fails CI instead of
# wedging it.
#
# Usage:
#   scripts/ci.sh                 # all stages
#   scripts/ci.sh --quick         # build + test + clippy only
#   scripts/ci.sh --stage <name>  # one stage (assumes a prior build)
#   scripts/ci.sh --list          # print stage names and exit
#
# Each run prints a per-stage wall-time summary table and writes it as
# ci_summary.json (machine-readable, gitignored) in the repo root.
set -uo pipefail
cd "$(dirname "$0")/.."

STAGES="build test fmt clippy manifest regen backend-matrix conformance bench-counts report perf-gate faults zero-fault fuzz"
QUICK_STAGES="build test clippy"

MODE="full"
ONLY_STAGE=""
case "${1:-}" in
    "") ;;
    --quick) MODE="quick" ;;
    --stage)
        ONLY_STAGE="${2:-}"
        if [ -z "$ONLY_STAGE" ]; then
            echo "usage: scripts/ci.sh --stage <name>  (one of: $STAGES)" >&2
            exit 2
        fi
        case " $STAGES " in
            *" $ONLY_STAGE "*) ;;
            *)
                echo "unknown stage '$ONLY_STAGE' (one of: $STAGES)" >&2
                exit 2
                ;;
        esac
        MODE="stage:$ONLY_STAGE"
        ;;
    --list)
        for s in $STAGES; do echo "$s"; done
        exit 0
        ;;
    *)
        echo "usage: scripts/ci.sh [--quick | --stage <name> | --list]" >&2
        exit 2
        ;;
esac

wd="${ELANIB_REGEN_TIMEOUT:-300}"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
# The bench-counts stage's fresh traced benchmark records, which the
# report stage renders.
BENCH_COUNTS="$scratch/benchmark_counts.jsonl"
# `env` arguments that clear every ELANIB_* variable: the benchmark
# package refuses to run with any of them set.
CLEAN_ENV=()
for v in $(compgen -e); do
    case "$v" in ELANIB_*) CLEAN_ENV+=(-u "$v") ;; esac
done

# ---------------------------------------------------------------- stages

stage_build() {
    cargo build --release --workspace --quiet
}

stage_test() {
    cargo test --workspace --release -q \
        && env "${CLEAN_ENV[@]}" cargo test --offline --release -q \
            --manifest-path benchmark/Cargo.toml
}

stage_fmt() {
    cargo fmt --check \
        || { echo "FAIL: formatting drift — run 'cargo fmt' and recommit" >&2; return 1; }
}

stage_clippy() {
    cargo clippy --workspace --all-targets --quiet -- -D warnings
}

stage_manifest() {
    # The manifest is regenerated by a successful full regen_all.sh
    # run; CI only ever verifies it. A mismatch means a results CSV
    # was hand-edited, or a change regenerated exhibits without
    # rerunning scripts/regen_all.sh.
    if [ ! -f results/MANIFEST.sha256 ]; then
        echo "FAIL: results/MANIFEST.sha256 missing — run scripts/regen_all.sh to create it" >&2
        return 1
    fi
    (cd results && LC_ALL=C sha256sum --check --quiet MANIFEST.sha256) || {
        echo "FAIL: results/ checksum mismatch — a committed CSV is stale or was hand-edited." >&2
        echo "      Regenerate legitimately with scripts/regen_all.sh (which refreshes the manifest)." >&2
        return 1
    }
    local f name
    for f in results/*.csv; do
        name="$(basename "$f")"
        grep -q "  $name\$" results/MANIFEST.sha256 || {
            echo "FAIL: $f is not listed in results/MANIFEST.sha256 —" >&2
            echo "      new exhibits must go through scripts/regen_all.sh so the manifest covers them." >&2
            return 1
        }
    done
}

stage_regen() {
    scripts/regen_all.sh --smoke
}

stage_backend-matrix() {
    # One fig2 smoke run per Network registry name, forced through the
    # ELANIB_BACKEND override. Every run simulates from scratch, so an
    # overridden run leaves no state behind. fig2's CSV carries IB columns
    # (2,3,6,7) and Elan columns (4,5,8,9); forcing hca must reproduce
    # the committed IB columns byte for byte, forcing elan the Elan
    # columns — the proof that the override plumbing is observationally
    # invisible for the paper networks. The
    # RoCE modes have no committed fig2 numbers; completing cleanly is
    # their gate (their quantitative claims live in expectations/
    # roce.toml).
    local b rc t0 t1
    BM_NAMES=()
    BM_WALLS=()
    for b in hca elan roce-pfc roce-dcqcn roce-hybrid; do
        mkdir -p "$scratch/bm-$b"
        t0=$(date +%s%N)
        rc=0
        ELANIB_RESULTS_DIR="$scratch/bm-$b" ELANIB_BACKEND="$b" \
            timeout "$wd" ./target/release/fig2 > /dev/null 2> "$scratch/bm-$b.log" || rc=$?
        t1=$(date +%s%N)
        if [ "$rc" -ne 0 ]; then
            echo "FAIL: fig2 under ELANIB_BACKEND=$b (status $rc)" >&2
            cat "$scratch/bm-$b.log" >&2
            return 1
        fi
        [ -s "$scratch/bm-$b/fig2_ljs.csv" ] \
            || { echo "FAIL: ELANIB_BACKEND=$b produced no fig2 CSV" >&2; return 1; }
        BM_NAMES+=("$b")
        BM_WALLS+=($(( (t1 - t0) / 1000000 )))
        echo "backend $b: fig2 smoke ok in $(( (t1 - t0) / 1000000 )) ms"
    done
    cut -d, -f1,2,3,6,7 results/fig2_ljs.csv > "$scratch/bm-ib-committed.csv"
    cut -d, -f1,2,3,6,7 "$scratch/bm-hca/fig2_ljs.csv" > "$scratch/bm-ib-forced.csv"
    cmp "$scratch/bm-ib-committed.csv" "$scratch/bm-ib-forced.csv" \
        || { echo "FAIL: ELANIB_BACKEND=hca drifted the IB columns of fig2" >&2
             diff -u "$scratch/bm-ib-committed.csv" "$scratch/bm-ib-forced.csv" | head -10 >&2
             return 1; }
    cut -d, -f1,4,5,8,9 results/fig2_ljs.csv > "$scratch/bm-elan-committed.csv"
    cut -d, -f1,4,5,8,9 "$scratch/bm-elan/fig2_ljs.csv" > "$scratch/bm-elan-forced.csv"
    cmp "$scratch/bm-elan-committed.csv" "$scratch/bm-elan-forced.csv" \
        || { echo "FAIL: ELANIB_BACKEND=elan drifted the Elan columns of fig2" >&2
             diff -u "$scratch/bm-elan-committed.csv" "$scratch/bm-elan-forced.csv" | head -10 >&2
             return 1; }
    echo "backend-matrix OK: 5 backends smoke-clean, hca/elan columns byte-identical"
}

stage_conformance() {
    timeout "$wd" ./target/release/conformance --json ci_conformance.json
}

stage_bench-counts() {
    # Deterministic per-layer counts (kernel events, timers, wakes,
    # spawned tasks, wheel cascades, MPI/NIC/fabric counters and wire
    # bytes) of one traced benchmark run per workload at seed 0 must
    # equal the committed scripts/benchmark_counts.jsonl. The
    # benchmark's own --compare exits 1 when any count differs and 2
    # when the record sets cannot be compared (a threads/nproc other
    # than the 2-CPU host the baseline was recorded on); both fail the
    # stage. The benchmark runs with ELANIB_* cleared; --seconds 1
    # keeps each run at its minimum, which leaves the counts unchanged.
    local w
    local cargo_bench=(env "${CLEAN_ENV[@]}" cargo run --quiet --offline --release
        --manifest-path benchmark/Cargo.toml --)
    # Build outside the watchdog: a cold build of the benchmark package
    # takes minutes.
    env "${CLEAN_ENV[@]}" cargo build --quiet --offline --release \
        --manifest-path benchmark/Cargo.toml \
        || { echo "FAIL: benchmark build" >&2; return 1; }
    : > "$BENCH_COUNTS"
    for w in cg md p2p fuzz; do
        timeout "$wd" "${cargo_bench[@]}" --workload "$w" --seed 0 --trace 1 --seconds 1 \
            --out "$scratch/$w.spans.jsonl" >> "$BENCH_COUNTS" \
            || { echo "FAIL: traced benchmark run of $w exited $?" >&2; return 1; }
    done
    "${cargo_bench[@]}" --compare scripts/benchmark_counts.jsonl "$BENCH_COUNTS" \
        || { echo "FAIL: benchmark --compare exited $? against scripts/benchmark_counts.jsonl" >&2; return 1; }
}

stage_report() {
    # Perf dashboard from the bench-counts stage's fresh records (the
    # committed baseline when that stage did not run in this
    # invocation) and the conformance verdict. It renders only: the
    # gates are bench-counts, perf-gate and conformance.
    local bench=scripts/benchmark_counts.jsonl
    [ -s "$BENCH_COUNTS" ] && bench="$BENCH_COUNTS"
    timeout "$wd" ./target/release/elanib-report --bench "$bench" \
        --conformance ci_conformance.json \
        --out-md perf_report.md --out-json perf_report.json
}

stage_perf-gate() {
    # FAILING allocation and events/s gates, both inside kernelbench:
    # allocations per event are deterministic, so their budgets are
    # exact; each scenario's events/s must stay within 2x of its best
    # on record. A dispatch-path regression that halves kernel
    # throughput fails CI here even if every CSV is still
    # byte-identical.
    timeout "$wd" ./target/release/kernelbench \
        || { echo "FAIL: kernelbench exited non-zero ($?)" >&2; return 1; }
}

stage_faults() {
    # The recovery machinery (IB retransmit/backoff, Elan link retry
    # and reroute) must terminate under representative plans. Exit
    # status is the assertion; the CSVs legitimately differ here.
    mkdir -p "$scratch/loss" "$scratch/outage"
    ELANIB_RESULTS_DIR="$scratch/loss" ELANIB_FAULTS="loss=1e-4,seed=13" \
        timeout "$wd" ./target/release/fig2 > /dev/null \
        || { echo "FAIL: fig2 under a low-rate loss plan (status $?)" >&2; return 1; }
    ELANIB_RESULTS_DIR="$scratch/outage" ELANIB_FAULTS="outage=link0@200us+2ms,seed=13" \
        timeout "$wd" ./target/release/fig2 > /dev/null \
        || { echo "FAIL: fig2 under a link-outage plan (status $?)" >&2; return 1; }
    # A malformed plan is refused before anything simulates: exit 2,
    # never a silent fault-free run.
    local rc=0
    ELANIB_FAULTS="bogus" ./target/release/table1 > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] \
        || { echo "FAIL: table1 under ELANIB_FAULTS=bogus exited $rc, want 2" >&2; return 1; }
    echo "fault-matrix smoke OK: loss and outage plans both completed, a bad plan exits 2"
}

stage_zero-fault() {
    # A rate-zero plan must be indistinguishable from no plan at all:
    # every exhibit CSV byte-identical to the committed results/.
    ELANIB_FAULTS="loss=0,seed=1" scripts/regen_all.sh
}

stage_fuzz() {
    # Property fuzz over seeded random scenarios: both stacks, every
    # cross-cutting invariant (byte conservation, no-deadlock budget,
    # determinism/observer-effect replays, monotone degradation, paper
    # ordering). Fixed base seed keeps the stage
    # reproducible; the wall budget keeps it time-boxed. On violation the binary shrinks the scenario and
    # prints a fuzz_failures/<seed>.toml replay path — attach that to
    # the bug report.
    ELANIB_FUZZ_BUDGET_SECS="${ELANIB_FUZZ_BUDGET_SECS:-60}" \
        timeout "$wd" ./target/release/fuzz --scenarios 500 --seed 42 \
        || { echo "FAIL: scenario fuzz found an invariant violation (repro under fuzz_failures/)" >&2; return 1; }
}

# ---------------------------------------------------------------- driver

if [ -n "$ONLY_STAGE" ]; then
    RUN_LIST="$ONLY_STAGE"
elif [ "$MODE" = "quick" ]; then
    RUN_LIST="$QUICK_STAGES"
else
    RUN_LIST="$STAGES"
fi

declare -a RAN_NAMES RAN_WALLS RAN_STATUS
# Filled by stage_backend-matrix; emitted as a "backend_matrix" block
# in ci_summary.json when that stage ran.
declare -a BM_NAMES=() BM_WALLS=()
overall=0
total_start=$(date +%s%N)
for s in $RUN_LIST; do
    echo "== stage $s =="
    t0=$(date +%s%N)
    rc=0
    "stage_$s" || rc=$?
    t1=$(date +%s%N)
    wall_ms=$(( (t1 - t0) / 1000000 ))
    RAN_NAMES+=("$s")
    RAN_WALLS+=("$wall_ms")
    if [ "$rc" -eq 0 ]; then
        RAN_STATUS+=("ok")
        echo "== stage $s ok in ${wall_ms} ms =="
    else
        RAN_STATUS+=("FAIL")
        echo "== stage $s FAILED (rc=$rc) after ${wall_ms} ms ==" >&2
        overall=1
        break   # later stages depend on earlier ones; stop, summarize
    fi
done
total_end=$(date +%s%N)
total_ms=$(( (total_end - total_start) / 1000000 ))

echo
echo "== CI summary ($MODE) =="
printf '%-14s %10s  %s\n' "stage" "wall" "status"
for i in "${!RAN_NAMES[@]}"; do
    printf '%-14s %8s ms  %s\n' "${RAN_NAMES[$i]}" "${RAN_WALLS[$i]}" "${RAN_STATUS[$i]}"
done
printf '%-14s %8s ms  %s\n' "total" "$total_ms" "$([ "$overall" -eq 0 ] && echo ok || echo FAIL)"

{
    printf '{\n  "mode": "%s",\n  "ok": %s,\n  "total_ms": %s,\n  "stages": [\n' \
        "$MODE" "$([ "$overall" -eq 0 ] && echo true || echo false)" "$total_ms"
    for i in "${!RAN_NAMES[@]}"; do
        printf '    {"name": "%s", "wall_ms": %s, "ok": %s}%s\n' \
            "${RAN_NAMES[$i]}" "${RAN_WALLS[$i]}" \
            "$([ "${RAN_STATUS[$i]}" = ok ] && echo true || echo false)" \
            "$([ $((i + 1)) -lt ${#RAN_NAMES[@]} ] && echo ',')"
    done
    if [ "${#BM_NAMES[@]}" -gt 0 ]; then
        printf '  ],\n  "backend_matrix": [\n'
        for i in "${!BM_NAMES[@]}"; do
            printf '    {"backend": "%s", "wall_ms": %s}%s\n' \
                "${BM_NAMES[$i]}" "${BM_WALLS[$i]}" \
                "$([ $((i + 1)) -lt ${#BM_NAMES[@]} ] && echo ',')"
        done
    fi
    printf '  ]\n}\n'
} > ci_summary.json
echo "[stage summary written to ci_summary.json]"

if [ "$overall" -eq 0 ]; then
    echo "CI OK"
else
    echo "CI FAILED at stage ${RAN_NAMES[${#RAN_NAMES[@]}-1]}" >&2
fi
exit "$overall"
