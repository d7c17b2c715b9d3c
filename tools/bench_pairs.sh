#!/usr/bin/env bash
# Paired benchmark runs of a parent revision against the working tree: the
# procedure of benchmark/README.md § Claiming a gain.
#
#   tools/bench_pairs.sh <parent-rev> <workloads> [pairs=10] [-- extra run args]
#
# <workloads> is one of BENCHMARK.json's workloads, several separated by
# commas, or `all`. Extra run args go to both sides' `hpcc-benchmark run`
# (`-- --seed 43`, `-- --quick --seconds 3`); without a `--seed` among them
# the seed is 42.
#
# Each side is built once per invocation, from its own source tree into its
# own CARGO_TARGET_DIR under target/bench_pairs/, and run from its own root.
# The parent's tree is a `git archive` of <parent-rev> there, extracted only
# when the revision differs from the one already there, so a second
# invocation against the same parent does not recompile it. Workloads run
# one after the other; within each, the side that runs first alternates from
# pair to pair. Prints every pair's wall_us_per_unit, whether the two
# reports are byte-identical, the win count, whether the claim rule of
# benchmark/README.md § Claiming a gain holds on those values (at least ten
# pairs, nine tenths of them won, and the change's median below the parent's
# by more than the parent's interquartile range), then the benchmark's
# `compare` over all runs of each side (median and quartiles of every
# end-to-end metric, verdict by BENCHMARK.json's bounds). Exits 1 if any
# workload's `compare` has a row that reads `worse`.
set -euo pipefail

usage() {
    sed -n '2,10p' "$0" >&2
    exit 2
}
[[ $# -ge 2 ]] || usage
parent_rev=$1
workloads=$2
shift 2
pairs=10
if [[ $# -gt 0 && $1 != -- ]]; then
    pairs=$1
    shift
fi
if [[ $# -gt 0 ]]; then
    [[ $1 == -- ]] || usage
    shift
fi
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
extra=("$@")
[[ " ${extra[*]} " == *" --seed "* ]] || extra+=(--seed 42)
metric=wall_us_per_unit

root=$(git rev-parse --show-toplevel)
if [[ $workloads == all ]]; then
    workloads=$(sed -n '/"workloads"/,/^  \]/s/.*"name": *"\([a-z_]*\)".*/\1/p' \
        "$root/BENCHMARK.json" | paste -sd,)
fi
IFS=, read -ra workloads <<<"$workloads"
[[ ${#workloads[@]} -gt 0 ]] || usage

work=$root/target/bench_pairs
parent_sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
if [[ $(cat "$work/parent-src.rev" 2>/dev/null) != "$parent_sha" ]]; then
    rm -rf "$work/parent-src" "$work/parent-src.rev"
    mkdir -p "$work/parent-src"
    git -C "$root" archive "$parent_sha" | tar -x -C "$work/parent-src"
    echo "$parent_sha" >"$work/parent-src.rev"
fi

declare -A src=([parent]=$work/parent-src [change]=$root)
for side in parent change; do
    echo "building $side (${src[$side]})" >&2
    (cd "${src[$side]}" && CARGO_TARGET_DIR=$work/$side-target \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# First quartile, median and third quartile of the arguments, by the method
# of the benchmark's `measure::quartiles` (Python's "exclusive" quantiles).
quartiles() {
    printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END {
        if (NR == 1) { print v[1], v[1], v[1]; exit }
        for (i = 1; i <= 3; i++) {
            j = int(i * (NR + 1) / 4)
            if (j < 1) j = 1
            if (j > NR - 1) j = NR - 1
            q[i] = v[j] + (v[j + 1] - v[j]) * (i * (NR + 1) / 4 - j)
        }
        print q[1], q[2], q[3]
    }'
}

stamp=$(date -u +%Y%m%dT%H%M%SZ)
# One run of one side of one workload; prints the metric's value.
run_side() {
    local side=$1 dir=$out/$1-$2
    (cd "${src[$side]}" && "$work/$side-target/release/hpcc-benchmark" run \
        --workload "$workload" "${extra[@]}" --out "$dir") |
        tail -n 1 | sed -n "s/.*\"$metric\":{\"value\":\([0-9.eE+-]*\).*/\1/p"
}

status=0
for workload in "${workloads[@]}"; do
    out=$work/runs/$stamp-$workload
    wins=0
    losses=0
    declare -A files=([parent]="" [change]="")
    values_parent=()
    values_change=()
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order=(parent change); else order=(change parent); fi
        declare -A value=()
        for side in "${order[@]}"; do
            value[$side]=$(run_side "$side" "$i")
            [[ -n ${value[$side]} ]] || {
                echo "$workload pair $i: the $side run printed no $metric" >&2
                exit 2
            }
            files[$side]+=${files[$side]:+,}$out/$side-$i/$workload.json
        done
        if cmp -s "$out/parent-$i/report_$workload.json" "$out/change-$i/report_$workload.json"; then
            report=identical
        else
            report=DIFFERENT
        fi
        case $(awk -v p="${value[parent]}" -v c="${value[change]}" \
            'BEGIN { print (c < p) ? "win" : (c > p) ? "loss" : "tie" }') in
        win) wins=$((wins + 1)) ;;
        loss) losses=$((losses + 1)) ;;
        esac
        values_parent+=("${value[parent]}")
        values_change+=("${value[change]}")
        echo "$workload pair $i (${order[0]} first): $metric parent ${value[parent]} change ${value[change]}; reports $report"
    done
    echo "$workload ${extra[*]}: change wins $wins, loses $losses of $pairs pairs on $metric"
    read -r q1 parent_median q3 <<<"$(quartiles "${values_parent[@]}")"
    read -r _ change_median _ <<<"$(quartiles "${values_change[@]}")"
    awk -v w="$workload" -v m="$metric" -v wins=$wins -v n=$pairs -v p="$parent_median" \
        -v c="$change_median" -v q1="$q1" -v q3="$q3" 'BEGIN {
        holds = n >= 10 && 10 * wins >= 9 * n && p - c > q3 - q1
        printf "%s claim on %s: %s (won %d of %d pairs, 9 in 10 of at least 10 needed; median %g -> %g, %+.1f %%, gap %g against the parent'"'"'s interquartile range %g)\n",
            w, m, holds ? "holds" : "does not hold", wins, n, p, c, 100 * (c - p) / p, p - c, q3 - q1
    }'
    (cd "$root" && "$work/change-target/release/hpcc-benchmark" compare \
        "${files[parent]}" "${files[change]}") || status=1
done
exit $status
