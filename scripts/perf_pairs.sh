#!/usr/bin/env bash
# Alternating parent/change benchmark pairs — the procedure behind every
# perf claim in CHANGES.md (ROADMAP standing rule: "every perf claim is
# alternating parent/change pairs on perfbench/ with digests equal").
#
#   scripts/perf_pairs.sh <parent-rev> "<workloads>" <pairs> <seconds>
#   make perf-pairs PARENT=<rev> [WORKLOADS="…"] [PAIRS=4] [SECONDS=6]
#
# Exports <parent-rev> into target/perf-pairs/parent (git archive: no
# worktree state to prune, and the working tree may be dirty), builds
# that tree's `perf` and the working tree's, then runs <pairs> pairs per
# workload, alternating which side goes first. Prints every run, then
# per workload the medians, the change/parent ratio, how many pairs the
# change won, and the report digests. Exits 1 if any digest differs
# between the sides or any run fails its own correctness gate.
set -euo pipefail

parent_rev=${1:?usage: perf_pairs.sh <parent-rev> [workloads] [pairs] [seconds]}
workloads=${2:-"campaign17d ips7d_mix psc_verified tor_day"}
pairs=${3:-4}
seconds=${4:-6}

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
    out=$(cd "$2" && "$1" --workload "$3" --seconds "$seconds" --trace 0)
    for f in wall_s throughput peak_rss_mb setup_s; do
        printf '%s ' "$(sed -n 's/.*"'"$f"'": {"value": \([^,}]*\).*/\1/p' <<<"$out" | tail -1)"
    done
    printf '%s ' "$(sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' <<<"$out" | head -1)"
    sed -n 's/.*"correct": \(true\|false\).*/\1/p' <<<"$out" | tail -1
}

median() { sort -g | awk '{v[NR]=$1} END {printf "%.6g\n", (NR%2) ? v[(NR+1)/2] : (v[NR/2]+v[NR/2+1])/2}'; }

status=0
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
        p=$(awk -v c="${col%%:*}" '$2=="parent" {print $c}' "$log" | median)
        c=$(awk -v c="${col%%:*}" '$2=="change" {print $c}' "$log" | median)
        printf '= %-13s %-12s median parent %-10s change %-10s ratio %s\n' \
            "$w" "${col##*:}" "$p" "$c" "$(awk -v p="$p" -v c="$c" 'BEGIN {printf "%.3f", c/p}')"
    done
    wins=$(awk '$2=="parent" {p[$1]=$3} $2=="change" {c[$1]=$3}
                END {for (i in p) if (c[i] < p[i]) n++; print n+0}' "$log")
    pd=$(awk '$2=="parent" {print $7}' "$log" | sort -u | tr '\n' ' ')
    cd_=$(awk '$2=="change" {print $7}' "$log" | sort -u | tr '\n' ' ')
    printf '= %-13s wall_s lower in %s/%s pairs; digest parent %schange %s\n' \
        "$w" "$wins" "$pairs" "$pd" "$cd_"
    if [ "$pd" != "$cd_" ] || [ "$(wc -w <<<"$pd")" -ne 1 ]; then
        echo "!! $w: report digests differ (parent: $pd change: $cd_)" >&2
        status=1
    fi
done
exit $status
