#!/usr/bin/env sh
# Non-test rust lines per crate and in total: every .rs file under crates/
# and src/ (skipping tests/, benches/, perf/ and target/ directories), each
# cut at its first `#[cfg(test)]`. A report, not a gate.
# Run from the repo root: ./scripts/loc.sh
set -eu

find crates src -name '*.rs' \
    -not -path '*/tests/*' -not -path '*/benches/*' \
    -not -path '*/perf/*' -not -path '*/target/*' |
    sort |
    while read -r f; do
        case "$f" in
        crates/*) crate=${f#crates/} crate=${crate%%/*} ;;
        *) crate=rheem ;;
        esac
        awk -v crate="$crate" '/#\[cfg\(test\)\]/ { exit } { n++ } END { print crate, n + 0 }' "$f"
    done |
    awk '{ per[$1] += $2; total += $2 }
         END { for (c in per) printf "%8d  %s\n", per[c], c | "sort -k2"; close("sort -k2")
               printf "%8d  total\n", total }'
