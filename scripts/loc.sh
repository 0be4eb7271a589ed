#!/usr/bin/env bash
# The ROADMAP's tracked number: non-test, non-blank, non-comment Rust
# lines per crate under crates/, and their total. "Non-test" leaves out
# tests/ and examples/ directories and everything from a
# file's `#[cfg(test)]` line on (test modules sit at the end of a file
# in this repo). Usage: scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # <crate dir>: its counted lines
    find "$1" -name '*.rs' -not -path '*/tests/*' \
        -not -path '*/examples/*' -not -path '*/target/*' -print0 |
        xargs -0 -r awk '
            FNR == 1 { in_tests = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
            in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
            { n++ }
            END { print n + 0 }'
}

total=0
for manifest in $(find crates -name Cargo.toml -not -path '*/target/*' | sort); do
    crate=$(dirname "$manifest")
    n=$(count "$crate")
    printf '%-32s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-32s %6d\n' "total" "$total"
