#!/usr/bin/env bash
# Non-test lines of rust source, counted one way: the lines of a file above
# its test module (`#[cfg(test)]` followed by a `mod` line; a `#[cfg(test)]`
# on a single item further up does not end the count), comments and blank
# lines included.
#
#   tools/loc.sh [<rev>]
#
# Without an argument: one row per crate (`crates/*/src`, the umbrella `src`,
# `benchmark/src`) of the working tree, and the total. With a revision: every
# file whose count differs from that revision's (before, after, delta), then
# the same rows with the crate's delta beside them.
set -euo pipefail

[[ $# -le 1 ]] || { sed -n '2,11p' "$0" >&2; exit 2; }
rev=${1:-}
cd "$(git rev-parse --show-toplevel)"
[[ -z $rev ]] || rev=$(git rev-parse --verify "$rev^{commit}")

# Lines of stdin above the test module.
count() {
    # (Reads to the end: a producer under `pipefail` must not see SIGPIPE.)
    awk 'seen { next }
         cfg && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { n -= 1; seen = 1; next }
         { cfg = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/; n += 1 }
         END { print n + 0 }'
}
sources() { grep -E '^(crates/[^/]+|benchmark)/src/.*\.rs$|^src/.*\.rs$' || true; }

declare -A now before
while read -r f; do
    [[ -f $f ]] && now[$f]=$(count <"$f")
done < <(git ls-files --cached --others --exclude-standard | sources)
if [[ -n $rev ]]; then
    while read -r f; do
        before[$f]=$(git show "$rev:$f" | count)
    done < <(git ls-tree -r --name-only "$rev" | sources)
fi

crate_of() { [[ $1 == src/* ]] && echo src || echo "${1%%/src/*}/src"; }
declare -A crate_now crate_delta
total=0 total_delta=0
for f in $(printf '%s\n' "${!now[@]}" "${!before[@]}" | sort -u); do
    c=$(crate_of "$f") a=${now[$f]:-0} b=${before[$f]:-0}
    [[ -n $rev ]] || b=$a
    crate_now[$c]=$((${crate_now[$c]:-0} + a))
    crate_delta[$c]=$((${crate_delta[$c]:-0} + a - b))
    total=$((total + a)) total_delta=$((total_delta + a - b))
    [[ -z $rev || $a -eq $b ]] || printf '%-44s %6d -> %6d  %+d\n' "$f" "$b" "$a" $((a - b))
done
[[ -z $rev || $total_delta -eq 0 ]] || echo
for c in $(printf '%s\n' "${!crate_now[@]}" | sort); do
    printf '%-44s %6d' "$c" "${crate_now[$c]}"
    [[ -z $rev ]] || printf '  %+d' "${crate_delta[$c]}"
    echo
done
printf '%-44s %6d' total "$total"
[[ -z $rev ]] || printf '  %+d' "$total_delta"
echo
