#!/bin/sh
# Per-crate source size: `src/**/*.rs` lines in total, and the lines
# before each file's first `#[cfg(test)] mod` (the non-test part). The
# benchmark package under crates/bench/src/bin/benchmark is not counted.
# Run from anywhere; prints one row per crate plus a total.
cd "$(dirname "$0")/.." || exit 1
printf '%-10s %9s %9s\n' crate non-test total
for dir in crates/*/; do
    crate=$(basename "$dir")
    find "$dir/src" -name '*.rs' -not -path '*/bin/benchmark/*' -print0 |
        xargs -0 awk -v crate="$crate" '
            FNR == 1 { in_test = 0; after_cfg = 0 }
            after_cfg && /^[[:space:]]*mod / && !in_test { in_test = 1; non_test-- }
            { after_cfg = /^[[:space:]]*#\[cfg\(test\)\]/ }
            { total++; if (!in_test) non_test++ }
            END { printf "%-10s %9d %9d\n", crate, non_test, total }'
done | awk '{ print; n += $2; t += $3 } END { printf "%-10s %9d %9d\n", "total", n, t }'
