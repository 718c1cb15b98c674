#!/usr/bin/env bash
# Alternating parent/change benchmark pairs — the procedure behind every
# perf claim in CHANGES.md (ROADMAP standing rule: "every perf claim is
# alternating parent/change pairs on perfbench/ with digests equal").
#
#   scripts/perf_pairs.sh <parent-rev> "<workloads>" <pairs> <seconds> <seed>
#   make perf-pairs PARENT=<rev> [WORKLOADS="…"] [PAIRS=4] [SECONDS=6] [SEED=2018]
#
# Exports <parent-rev> into target/perf-pairs/parent (git archive: no
# worktree state to prune, and the working tree may be dirty), builds
# that tree's `perf` and the working tree's, then runs <pairs> pairs per
# workload, alternating which side goes first. Prints every run, then
# per workload and end-to-end metric each side's median and quartiles,
# the change/parent ratio of medians and a verdict by the claim rule
# (see `verdicts` below), and the report digests. After the pairs, one
# `--trace 1` pass per side per workload (which adds the per-layer
# ledger and the profiled runner) runs under `timeout` and prints its
# `ledger_s` and `proc.cpu_s` (CPU seconds per traced rep: a CPU-bound
# workload's saving shows there when its wall time is noisy). Exits 1
# if any digest differs between the sides, any run fails its own
# correctness gate, or a traced pass times out or exits nonzero; the
# verdicts are for a human to read and do not set the status.
set -euo pipefail

parent_rev=${1:?usage: perf_pairs.sh <parent-rev> [workloads] [pairs] [seconds] [seed]}
workloads=${2:-"campaign17d ips7d_mix psc_verified tor_day"}
pairs=${3:-4}
seconds=${4:-6}
# The workload seed both binaries run with (`perf`'s own default): a
# claim must also hold on a seed not used while the change was written.
seed=${5:-2018}

root=$(git rev-parse --show-toplevel)
cd "$root"
work=target/perf-pairs
parent_dir=$work/parent
rev=$(git rev-parse --verify "$parent_rev^{commit}")

rm -rf "$parent_dir"
mkdir -p "$parent_dir"
git archive "$rev" | tar -x -C "$parent_dir"

echo "# building parent $(git rev-parse --short "$rev") and the working tree" >&2
CARGO_TARGET_DIR=$root/$work/parent-target \
    cargo build --release --quiet --manifest-path "$parent_dir/perfbench/Cargo.toml"
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
parent_bin=$root/$work/parent-target/release/perf
change_bin=$root/perfbench/target/release/perf

# One run: prints "wall_s throughput peak_rss_mb setup_s digest correct".
run() { # <binary> <cwd> <workload>
    local out f
    out=$(cd "$2" && "$1" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0)
    for f in wall_s throughput peak_rss_mb setup_s; do
        printf '%s ' "$(sed -n 's/.*"'"$f"'": {"value": \([^,}]*\).*/\1/p' <<<"$out" | tail -1)"
    done
    printf '%s ' "$(sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' <<<"$out" | head -1)"
    sed -n 's/.*"correct": \(true\|false\).*/\1/p' <<<"$out" | tail -1
}

# The traced pass's time limit: its timed reps, the ledger's fixed
# work (seconds, not minutes, on any workload) and a wide margin, so
# only a hang or a many-fold slowdown trips it.
trace_limit=$((5 * seconds + 60))

# One traced pass: prints "<exit status> <ledger_s> <proc.cpu_s>"
# (status 124 is a timeout; a missing value prints as n/a).
traced() { # <binary> <cwd> <workload>
    local out rc=0 ledger cpu
    out=$(cd "$2" && timeout "$trace_limit" "$1" --workload "$3" --seed "$seed" \
        --seconds "$seconds" --trace 1) || rc=$?
    ledger=$(sed -n 's/.*"ledger_s": \([0-9.e+-]*\).*/\1/p' <<<"$out" | head -1)
    cpu=$(sed -n 's/.*"proc\.cpu_s": {"value": \([0-9.e+-]*\).*/\1/p' <<<"$out" | head -1)
    printf '%s %s %s\n' "$rc" "${ledger:-n/a}" "${cpu:-n/a}"
}

# "<better> <bound>" of an end-to-end metric, as BENCHMARK.json fixes it.
bound_of() { # <metric>
    sed -n 's/.*{"name": "'"$1"'",.*"better": "\([a-z]*\)", "bound": \([0-9.]*\)}.*/\1 \2/p' BENCHMARK.json
}

# Two lines for one metric of one workload's runs log: each side's
# median [Q1, Q3] and the ratio of medians, then the verdict —
#   gain        the change is better in >= 9/10 of the pairs (ties count
#               for neither side) and the medians differ by more than
#               the parent's inter-quartile distance: the claim rule;
#   unresolved  a side's IQR/median exceeds the metric's bound, so the
#               runs cannot show "no worse than the bound" — unless
#               every change run beats every parent run;
#   within      the change's median is no worse than the parent's by
#               more than the bound;
#   WORSE       it is worse by more than the bound.
verdicts() { # <log> <workload> <column> <metric> <better> <bound>
    awk -v w="$2" -v col="$3" -v metric="$4" -v better="$5" -v bound="$6" '
        function sorted(v, n,    i, j, t) {
            for (i = 2; i <= n; i++) {
                t = v[i]
                for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
                v[j + 1] = t
            }
        }
        function quantile(v, n, q,    pos, lo) {
            pos = (n - 1) * q + 1
            lo = int(pos)
            return (lo >= n) ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        function abs(x) { return x < 0 ? -x : x }
        $2 == "parent" { p[++np] = $col + 0; pp[$1] = $col + 0 }
        $2 == "change" { c[++nc] = $col + 0; cp[$1] = $col + 0 }
        END {
            sign = (better == "lower") ? 1 : -1
            for (i in pp) {
                if (!(i in cp)) continue
                pairs++
                if (sign * cp[i] < sign * pp[i]) won++
                else if (sign * cp[i] > sign * pp[i]) lost++
            }
            sorted(p, np); sorted(c, nc)
            pm = quantile(p, np, 0.5); p1 = quantile(p, np, 0.25); p3 = quantile(p, np, 0.75)
            cm = quantile(c, nc, 0.5); c1 = quantile(c, nc, 0.25); c3 = quantile(c, nc, 0.75)
            printf "= %-13s %-12s median parent %.6g [%.6g, %.6g] change %.6g [%.6g, %.6g] ratio %s\n", \
                w, metric, pm, p1, p3, cm, c1, c3, (pm != 0) ? sprintf("%.3f", cm / pm) : "n/a"
            iqr = p3 - p1
            spread = (pm != 0) ? iqr / abs(pm) : 0
            if (cm != 0 && (c3 - c1) / abs(cm) > spread) spread = (c3 - c1) / abs(cm)
            beyond = abs(cm - pm) > iqr
            # Does every change run read better than every parent run?
            clean = (sign > 0) ? (c[nc] < p[1]) : (c[1] > p[np])
            if (sign * cm < sign * pm && won * 10 >= pairs * 9 && beyond) v = "gain"
            else if (spread > bound && !clean) v = "unresolved"
            else if (sign * (cm - pm) <= bound * abs(pm)) v = "within"
            else v = "WORSE"
            printf "= %-13s %-12s verdict %s: better in %d/%d pairs, worse in %d; |median diff| %.4g %s parent IQR %.4g; spread %.1f%% %s bound %.1f%%\n", \
                w, metric, v, won, pairs, lost, abs(cm - pm), beyond ? ">" : "<=", iqr, \
                100 * spread, (spread > bound) ? ">" : "<=", 100 * bound
        }' "$1"
}

status=0
echo "# parent $(git rev-parse --short "$rev"), seed $seed, $pairs pairs, $seconds s per run"
# Which kernel paths both sides ran: the lane kernel needs avx512ifma,
# the SHA-256 kernel sha_ni; each falls back to scalar code without.
ifma=$(grep -c avx512ifma /proc/cpuinfo || true)
sha_ni=$(grep -c sha_ni /proc/cpuinfo || true)
echo "# host: nproc $(nproc), cpus with avx512ifma ${ifma:-0}, with sha_ni ${sha_ni:-0}"
printf '%-13s %4s %-6s %9s %12s %11s %8s  %s\n' \
    workload pair side wall_s throughput peak_rss_mb setup_s digest
for w in $workloads; do
    log=$work/$w.runs
    : >"$log"
    for i in $(seq 1 "$pairs"); do
        if ((i % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            if [ "$side" = parent ]; then
                r=$(run "$parent_bin" "$parent_dir" "$w")
            else
                r=$(run "$change_bin" "$root" "$w")
            fi
            # shellcheck disable=SC2086
            set -- $r
            printf '%-13s %4d %-6s %9s %12s %11s %8s  %s\n' "$w" "$i" "$side" "$1" "$2" "$3" "$4" "$5"
            echo "$i $side $r" >>"$log"
            if [ "${6:-false}" != true ]; then
                echo "!! $w pair $i $side: run failed its correctness gate" >&2
                status=1
            fi
        done
    done
    for col in 3:wall_s 4:throughput 5:peak_rss_mb 6:setup_s; do
        # shellcheck disable=SC2046
        verdicts "$log" "$w" "${col%%:*}" "${col##*:}" $(bound_of "${col##*:}")
    done
    pd=$(awk '$2=="parent" {print $7}' "$log" | sort -u | tr '\n' ' ')
    cd_=$(awk '$2=="change" {print $7}' "$log" | sort -u | tr '\n' ' ')
    printf '= %-13s digest parent %schange %s\n' "$w" "$pd" "$cd_"
    if [ "$pd" != "$cd_" ] || [ "$(wc -w <<<"$pd")" -ne 1 ]; then
        echo "!! $w: report digests differ (parent: $pd change: $cd_)" >&2
        status=1
    fi
done
for w in $workloads; do
    for side in parent change; do
        if [ "$side" = parent ]; then
            r=$(traced "$parent_bin" "$parent_dir" "$w")
        else
            r=$(traced "$change_bin" "$root" "$w")
        fi
        # shellcheck disable=SC2086
        set -- $r
        printf '= %-13s traced %-6s exit %s ledger_s %s cpu_s %s\n' "$w" "$side" "$1" "$2" "$3"
        if [ "$1" = 124 ]; then
            echo "!! $w $side: traced pass timed out after ${trace_limit} s" >&2
            status=1
        elif [ "$1" != 0 ]; then
            echo "!! $w $side: traced pass exited $1" >&2
            status=1
        fi
    done
done
exit $status
