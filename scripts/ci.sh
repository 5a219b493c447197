#!/usr/bin/env bash
# Tier-1 gate: build and run the test suite, plain and sanitized, with
# the ONFI conformance audit and the performance guards.
#
# The sanitized pass (ASan + UBSan via -DBABOL_SANITIZE=ON) exists
# chiefly for the event kernel's pool / free-list / intrusive-list code,
# where a stale index or double release would otherwise corrupt silently.
#
# The TSan pass (-DBABOL_TSAN=ON) covers the sharded multi-core engine:
# the tier-1 suite plus three seeded sharded runs on 4 worker threads
# (fig12's direct FTL calls, its NVMe front end, and a RAIN rebuild
# after a die kill), so every cross-shard link, barrier, and
# merged-trace path runs under the race detector.
#
# Stages (all run when no flag is given; CI runs them as separate jobs):
#   --plain-only   configure/build/ctest, default flags, then the golden
#                  outputs (ctest -L golden: tests/golden/manifest.txt)
#   --asan-only    configure/build/ctest with ASan + UBSan
#   --tsan-only    configure/build/ctest with TSan + the sharded fig12
#                  workload (direct and NVMe) and a RAIN rebuild, each
#                  on 4 threads
#   --audit-only   BABOL_AUDIT=1 sanitizer sweep + fault campaigns and
#                  power-capped runs on every controller flavour, plus
#                  the sharded engine at 1/2/4 threads and the
#                  wear-bounded lifetime smoke (requires a prior
#                  plain build; runs one if build/ is missing)
#   --crash-only   crash/remount campaign: the committed power-cut plan
#                  (examples/crash_plan.txt) on every controller
#                  flavour under BABOL_AUDIT=1, a byte-identical-rerun
#                  determinism check, and a clean-shutdown remount
#                  (same build requirement)
#   --guard-only   bench-regression, tracing-overhead and ECC-cost
#                  guards and the determinism smokes: fig12 --threads
#                  1/2/4 must print byte-identical tables, and the
#                  multi-tenant SLO JSON must be byte-identical across
#                  thread counts (same build requirement)
#   --reliability-only  media-decay campaign: a die killed mid-workload
#                  on every controller flavour under BABOL_AUDIT=1 with
#                  RAIN + patrol scrub on, asserting zero acknowledged
#                  data loss, byte-identical rerun and thread-count
#                  digests, a power cut + remount inside the campaign, a
#                  surviving block failure, and the no-RAIN control that
#                  MUST lose data (same build requirement)
#
# The golden cases run in the plain stage only: they pin the outputs of
# whole command lines, which the sanitizer and audit stages would
# rerun slower without covering anything new.
#
# Usage: scripts/ci.sh
#   [--plain-only|--asan-only|--tsan-only|--audit-only|--crash-only|
#    --guard-only|--reliability-only]

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-all}"

run_suite() {
    local dir="$1"; shift
    cmake -B "$dir" -S "$ROOT" "$@"
    cmake --build "$dir" -j"$JOBS"
    ctest --test-dir "$dir" --output-on-failure -j"$JOBS" -LE golden
}

ensure_plain_build() {
    if [[ ! -x "$ROOT/build/examples/ssd_fio" ]]; then
        cmake -B "$ROOT/build" -S "$ROOT"
        cmake --build "$ROOT/build" -j"$JOBS"
    fi
}

stage_plain() {
    echo "=== tier-1: plain ==="
    run_suite "$ROOT/build"
    echo "=== tier-1: golden outputs (ctest -L golden) ==="
    ctest --test-dir "$ROOT/build" --output-on-failure -j"$JOBS" -L golden
}

stage_asan() {
    echo "=== tier-1: ASan + UBSan ==="
    run_suite "$ROOT/build-asan" -DBABOL_SANITIZE=ON
}

stage_tsan() {
    echo "=== tier-1: TSan ==="
    run_suite "$ROOT/build-tsan" -DBABOL_TSAN=ON
    echo "=== tier-1: TSan sharded runs (4 threads) ==="
    "$ROOT/build-tsan/bench/fig12_end_to_end" --quick --threads 4 \
        >/dev/null
    "$ROOT/build-tsan/bench/fig12_end_to_end" --quick --qpairs 2 \
        --threads 4 >/dev/null
    "$ROOT/build-tsan/examples/ssd_fio" coro --rain --scrub \
        --diefail-at 200 --threads 4 >/dev/null
}

# ONFI conformance audit: the whole suite and the figure benches run
# with the online auditor armed as a sanitizer (BABOL_AUDIT=1 panics on
# the first unsuppressed diagnostic), plus collector-mode (--audit)
# passes whose exit status covers the end-of-run conservation checks —
# including a full fault campaign on every controller flavour, which
# must inject, recover, and still audit clean.
stage_audit() {
    ensure_plain_build
    echo "=== tier-1: ONFI conformance audit (BABOL_AUDIT=1) ==="
    BABOL_AUDIT=1 ctest --test-dir "$ROOT/build" --output-on-failure \
        -j"$JOBS" -LE golden
    BABOL_AUDIT=1 "$ROOT/build/bench/fig10_sw_overhead" --quick >/dev/null
    BABOL_AUDIT=1 "$ROOT/build/bench/fig11_polling_breakdown" >/dev/null
    BABOL_AUDIT=1 "$ROOT/build/bench/fig12_end_to_end" --quick >/dev/null
    "$ROOT/build/examples/ssd_fio" coro --audit | tail -3

    # The sharded engine must audit clean at every thread count: the
    # auditor runs per-shard and its ledgers are absorbed at barriers,
    # so a miscounted absorb would show up here as a panic.
    echo "=== tier-1: sharded-engine audit (1/2/4 threads) ==="
    local t
    for t in 1 2 4; do
        BABOL_AUDIT=1 "$ROOT/build/bench/fig12_end_to_end" --quick \
            --threads "$t" >/dev/null
    done

    # The NVMe front end replayed on the sharded engine must audit
    # clean too: queue fetches/CQE posts ride the host shard while
    # flash work crosses shard links.
    echo "=== tier-1: sharded trace replay audit (4 threads) ==="
    BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" coro --qpairs 2 \
        --replay "$ROOT/examples/trace_sample.txt" --threads 4 \
        | tail -3

    # Power-accounting smoke: run every flavour with the sanitizer armed
    # and a power cap low enough to open throttle windows. The auditor's
    # Power rule checks energy conservation at finish, and the
    # throttle-admission tripwire panics if a request slips past the
    # governor's gate during a forced idle window.
    echo "=== tier-1: power-audit smoke (cap + conservation) ==="
    mkdir -p "$ROOT/build/audit-reports"
    local pf
    for pf in coro rtos hw; do
        BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" "$pf" \
            --power-cap 100 --audit="$ROOT/build/audit-reports/power_${pf}.txt" \
            | tail -2
    done

    echo "=== tier-1: fault campaigns (every flavour, audit-clean) ==="
    mkdir -p "$ROOT/build/audit-reports"
    local flavor
    for flavor in coro rtos hw; do
        echo "--- $flavor ---"
        "$ROOT/build/examples/ssd_fio" "$flavor" \
            --faults "$ROOT/examples/fault_plan.txt" \
            --audit="$ROOT/build/audit-reports/fault_${flavor}.txt" \
            | tail -4
    done

    # Wear-bounded lifetime smoke: drive one chip to its erase limit.
    # The FTL must retire the worn block without stranding a single
    # in-flight write, static WL must hold the erase-count spread, and
    # the device must keep serving writes afterwards.
    echo "=== tier-1: wear-bounded lifetime smoke ==="
    "$ROOT/build/examples/ssd_fio" coro --lifetime-smoke | tail -2
}

# Crash/remount campaign: every power-cut point in the committed plan
# is one full cut/remount/verify cycle, run on every controller flavour
# with the auditor armed as a sanitizer. The gate: zero lost
# acknowledged writes, zero resurrected stale mappings, audit-clean —
# and recovery must be deterministic, so a rerun's digest file has to
# be byte-identical. A clean shutdown must remount to exactly the
# issued state.
stage_crash() {
    ensure_plain_build
    echo "=== tier-1: crash/remount campaign (every flavour) ==="
    mkdir -p "$ROOT/build/crash-reports"
    local flavor
    for flavor in coro rtos hw; do
        echo "--- $flavor ---"
        BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" "$flavor" \
            --crash-plan "$ROOT/examples/crash_plan.txt" \
            --crash-out "$ROOT/build/crash-reports/crash_${flavor}_a.txt" \
            | tail -3
        BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" "$flavor" \
            --crash-plan "$ROOT/examples/crash_plan.txt" \
            --crash-out "$ROOT/build/crash-reports/crash_${flavor}_b.txt" \
            >/dev/null
        cmp "$ROOT/build/crash-reports/crash_${flavor}_a.txt" \
            "$ROOT/build/crash-reports/crash_${flavor}_b.txt" || {
            echo "FAIL: $flavor crash recovery is not deterministic"
            exit 1
        }
    done
    echo "    byte-identical recovery digests on reruns"

    echo "=== tier-1: clean-shutdown remount ==="
    BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" coro --remount | tail -2
}

# Media-decay reliability campaign: on every controller flavour, kill a
# die mid-workload with RAIN + patrol scrub armed and the auditor in
# sanitizer mode. The gate: the run completes with zero acknowledged
# data loss (exit 0, not the data-loss exit code 4), every stranded
# page XOR-rebuilt and verified by read-back digest — and the whole
# campaign is deterministic, so a rerun's digest file must be
# byte-identical, as must the digest across 1/2/4 worker threads. A
# block failure must be survived the same way, and the no-RAIN control
# MUST lose data (proving the campaign actually bites).
stage_reliability() {
    ensure_plain_build
    echo "=== tier-1: reliability test suite (ctest -L reliability) ==="
    BABOL_AUDIT=1 ctest --test-dir "$ROOT/build" --output-on-failure \
        -L reliability -j"$JOBS"

    echo "=== tier-1: reliability campaign (die failure, every flavour) ==="
    mkdir -p "$ROOT/build/reliability-reports"
    # The digest file is append-mode; stale lines from a previous local
    # run would defeat the byte-identical cmp below.
    rm -f "$ROOT/build/reliability-reports"/rel_*.txt
    local flavor
    for flavor in coro rtos hw; do
        echo "--- $flavor ---"
        BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" "$flavor" \
            --rain --scrub --diefail-at 200 \
            --reliability-out "$ROOT/build/reliability-reports/rel_${flavor}_a.txt" \
            | tail -4
        BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" "$flavor" \
            --rain --scrub --diefail-at 200 \
            --reliability-out "$ROOT/build/reliability-reports/rel_${flavor}_b.txt" \
            >/dev/null
        cmp "$ROOT/build/reliability-reports/rel_${flavor}_a.txt" \
            "$ROOT/build/reliability-reports/rel_${flavor}_b.txt" || {
            echo "FAIL: $flavor die-failure recovery is not deterministic"
            exit 1
        }
    done
    echo "    byte-identical recovery digests on reruns"

    echo "=== tier-1: reliability thread-count determinism (1/2/4) ==="
    local t
    for t in 1 2 4; do
        BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" coro \
            --rain --scrub --diefail-at 200 --threads "$t" \
            --reliability-out "$ROOT/build/reliability-reports/rel_t${t}.txt" \
            >/dev/null
    done
    cmp "$ROOT/build/reliability-reports/rel_t1.txt" \
        "$ROOT/build/reliability-reports/rel_t2.txt" || {
        echo "FAIL: reliability digest differs between 1 and 2 threads"
        exit 1
    }
    cmp "$ROOT/build/reliability-reports/rel_t1.txt" \
        "$ROOT/build/reliability-reports/rel_t4.txt" || {
        echo "FAIL: reliability digest differs between 1 and 4 threads"
        exit 1
    }
    echo "    identical digests at 1, 2, and 4 threads"

    # A power cut inside the campaign: freeze at the 120th ack, remount
    # from OOB, then keep RAIN + scrub traffic going on the remounted
    # device. Every acknowledged write must survive the cut, with the
    # same digest at 1 and 4 worker threads.
    echo "=== tier-1: reliability campaign across a power cut ==="
    for flavor in coro rtos hw; do
        for t in 1 4; do
            BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" "$flavor" \
                --rain --scrub --crash-at 120 --threads "$t" \
                --reliability-out "$ROOT/build/reliability-reports/rel_cut_${flavor}_t${t}.txt" \
                >/dev/null
        done
        cmp "$ROOT/build/reliability-reports/rel_cut_${flavor}_t1.txt" \
            "$ROOT/build/reliability-reports/rel_cut_${flavor}_t4.txt" || {
            echo "FAIL: $flavor power-cut campaign differs between 1 and 4 threads"
            exit 1
        }
    done
    echo "    every flavour clean across the cut, identical at 1 and 4 threads"

    echo "=== tier-1: reliability block-failure campaign ==="
    BABOL_AUDIT=1 "$ROOT/build/examples/ssd_fio" coro \
        --rain --scrub --blockfail-at 150 \
        --reliability-out "$ROOT/build/reliability-reports/rel_blockfail.txt" \
        | tail -4

    # Negative control: the same die kill WITHOUT RAIN must lose data
    # and say so via the dedicated exit code. If this run starts
    # passing, the campaign stopped exercising anything.
    echo "=== tier-1: reliability no-RAIN control (must lose data) ==="
    local rc=0
    "$ROOT/build/examples/ssd_fio" coro --scrub --diefail-at 200 \
        >/dev/null || rc=$?
    if [[ "$rc" -ne 4 ]]; then
        echo "FAIL: no-RAIN die kill exited $rc, expected data-loss code 4"
        exit 1
    fi
    echo "    control lost data as expected (exit 4)"
}

# Bench-regression guard: the event kernel's throughput must stay
# within 15% of the committed baseline. One retry absorbs machine
# noise; the comparison uses sed/awk only, no extra tooling.
check_bench_regression() {
    local baseline="$ROOT/BENCH_event_kernel.json"
    local fresh="$ROOT/build/bench_guard.json"
    "$ROOT/build/bench/micro_event_kernel" --quick --out "$fresh" \
        >/dev/null
    local want got
    want="$(sed -n 's/.*"kernel_events_per_sec": \([0-9]*\).*/\1/p' \
        "$baseline")"
    got="$(sed -n 's/.*"kernel_events_per_sec": \([0-9]*\).*/\1/p' \
        "$fresh")"
    echo "    kernel events/s: baseline ${want}, this run ${got}"
    awk -v w="$want" -v g="$got" \
        'BEGIN { exit !(g >= w * 0.85 && g <= w * 1.15) }'
}

stage_guard() {
    ensure_plain_build
    echo "=== tier-1: bench-regression guard (±15%) ==="
    if ! check_bench_regression; then
        echo "    outside ±15%; retrying once to rule out noise"
        check_bench_regression || {
            echo "FAIL: event-kernel throughput drifted more than 15%" \
                 "from BENCH_event_kernel.json"
            exit 1
        }
    fi

    # Disabled-overhead guard: with the obs hot path (or the scrubber's
    # host-path bookkeeping) compiled in but switched off, the event
    # kernel must stay within 3% of its plain throughput. One retry
    # absorbs machine noise.
    echo "=== tier-1: disabled-overhead guard (obs + scrub) ==="
    check_overhead() {
        "$ROOT/build/bench/micro_event_kernel" --quick \
            --out "$ROOT/build/bench_obs_guard.json" >/dev/null
        local pct spct
        pct="$(sed -n \
            's/.*"obs_disabled_overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' \
            "$ROOT/build/bench_obs_guard.json")"
        spct="$(sed -n \
            's/.*"scrub_disabled_overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' \
            "$ROOT/build/bench_obs_guard.json")"
        echo "    obs-disabled overhead: ${pct}%," \
             "scrub-disabled overhead: ${spct}%"
        awk -v p="$pct" -v s="$spct" \
            'BEGIN { exit !(p <= 3.0 && s <= 3.0) }'
    }
    if ! check_overhead; then
        echo "    above 3%; retrying once to rule out noise"
        check_overhead || {
            echo "FAIL: disabled tracing/scrub costs more than 3% throughput"
            exit 1
        }
    fi

    # ECC-cost guard: encoding, decoding and extracting one 16 KiB page
    # must cost under 100 plain copies of its flash image. Both sides
    # are medians of the same run, so the bound is a ratio that holds
    # on any machine. The byte-at-a-time engine read about 460.
    echo "=== tier-1: ECC cost guard (encode+decode+extract < 100x copy) ==="
    "$ROOT/build/bench/micro_primitives" --benchmark_color=false \
        --benchmark_filter='^BM_(EccEncode|EccDecode|EccExtract|FlashImageCopy)$' \
        --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
        --benchmark_time_unit=ns > "$ROOT/build/bench_ecc_guard.txt"
    awk -v k=100 '
        $1 ~ /^BM_Ecc(Encode|Decode|Extract)_median$/ { ecc += $4; n++ }
        $1 == "BM_FlashImageCopy_median" { copy = $4 }
        END {
            if (n != 3 || copy <= 0) {
                print "FAIL: ECC guard benchmarks missing from the output"
                exit 1
            }
            printf "    encode+decode+extract %.0f ns, image copy %.0f ns:" \
                   " ratio %.1f\n", ecc, copy, ecc / copy
            if (ecc > k * copy) {
                printf "FAIL: ECC costs more than %d image copies\n", k
                exit 1
            }
        }' "$ROOT/build/bench_ecc_guard.txt"

    # Sharded determinism smoke: the fig12 workload on the sharded
    # engine is a pure function of the model, so the printed table must
    # be byte-identical no matter how many worker threads run it.
    echo "=== tier-1: sharded determinism smoke (--threads 1/2/4) ==="
    local t
    for t in 1 2 4; do
        "$ROOT/build/bench/fig12_end_to_end" --quick --threads "$t" \
            > "$ROOT/build/fig12_t${t}.txt"
    done
    diff "$ROOT/build/fig12_t1.txt" "$ROOT/build/fig12_t2.txt" || {
        echo "FAIL: sharded fig12 output differs between 1 and 2 threads"
        exit 1
    }
    diff "$ROOT/build/fig12_t1.txt" "$ROOT/build/fig12_t4.txt" || {
        echo "FAIL: sharded fig12 output differs between 1 and 4 threads"
        exit 1
    }
    echo "    identical tables at 1, 2, and 4 threads"

    # Power determinism smoke: per-rail energy is integer femtojoules
    # (order-independent sums), so the power summary must be
    # byte-identical no matter how many worker threads ran the device.
    # The queued front end runs on the sharded engine, so --threads
    # really changes how the device is executed.
    echo "=== tier-1: power determinism smoke (--threads 1/4) ==="
    "$ROOT/build/examples/ssd_fio" coro --qpairs 2 \
        --power-out "$ROOT/build/power_t1.json" --threads 1 >/dev/null
    "$ROOT/build/examples/ssd_fio" coro --qpairs 2 \
        --power-out "$ROOT/build/power_t4.json" --threads 4 >/dev/null
    cmp "$ROOT/build/power_t1.json" "$ROOT/build/power_t4.json" || {
        echo "FAIL: power summary differs between 1 and 4 threads"
        exit 1
    }
    echo "    identical power summaries at 1 and 4 threads"

    # Multi-tenant determinism smoke: the per-tenant SLO report is a
    # pure function of the model too — two runs at different thread
    # counts must produce byte-identical JSON.
    echo "=== tier-1: multi-tenant SLO determinism smoke ==="
    "$ROOT/build/examples/ssd_fio" coro --qpairs 4 --tenants 50 \
        --slo-out "$ROOT/build/slo_t1.json" --threads 1 >/dev/null
    "$ROOT/build/examples/ssd_fio" coro --qpairs 4 --tenants 50 \
        --slo-out "$ROOT/build/slo_t4.json" --threads 4 >/dev/null
    cmp "$ROOT/build/slo_t1.json" "$ROOT/build/slo_t4.json" || {
        echo "FAIL: tenant SLO report differs between 1 and 4 threads"
        exit 1
    }
    echo "    identical SLO JSON at 1 and 4 threads (50 tenants)"
}

case "$MODE" in
  --plain-only) stage_plain ;;
  --asan-only)  stage_asan ;;
  --tsan-only)  stage_tsan ;;
  --audit-only) stage_audit ;;
  --crash-only) stage_crash ;;
  --guard-only) stage_guard ;;
  --reliability-only) stage_reliability ;;
  all)
    stage_plain
    stage_audit
    stage_crash
    stage_reliability
    stage_asan
    stage_tsan
    stage_guard
    ;;
  *)
    echo "usage: scripts/ci.sh" \
         "[--plain-only|--asan-only|--tsan-only|--audit-only|--crash-only|--guard-only|--reliability-only]" \
         >&2
    exit 2
    ;;
esac

echo "=== tier-1: OK ==="
