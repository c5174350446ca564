#!/usr/bin/env bash
# Non-test line count: every .rs file under crates/*/src and src/, each cut
# at its first `#[cfg(test)]` line, without blank lines or lines that start
# with `//` (comments and doc comments). Prints the count per crate (the
# root package as `pagecross`), then the total.
#
# Usage: scripts/loc.sh

set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { cut = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
        cut || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

total=0
for dir in src crates/*/src; do
    if [ "$dir" = src ]; then name=pagecross; else name="${dir#crates/}"; name="${name%/src}"; fi
    n="$(count "$dir")"
    printf '%-10s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
