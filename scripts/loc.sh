#!/bin/sh
# Per-crate source size: `src/**/*.rs` lines in total, the lines before
# each file's first `#[cfg(test)] mod` (the non-test part), and the public
# items (`pub [unsafe] fn|struct|enum|trait|const|type`) in that non-test
# part. The benchmark package under crates/bench/src/bin/benchmark is not
# counted. Then the `// lint: allow(<rule>)` waivers per rule (the lint
# crate's own sources only talk about waivers and are skipped). Both
# tables are the numbers CHANGES.md tracks. Run from anywhere.
cd "$(dirname "$0")/.." || exit 1
printf '%-10s %9s %9s %9s\n' crate non-test total pub-items
for dir in crates/*/; do
    crate=$(basename "$dir")
    find "$dir/src" -name '*.rs' -not -path '*/bin/benchmark/*' -print0 |
        xargs -0 awk -v crate="$crate" '
            FNR == 1 { in_test = 0; after_cfg = 0 }
            after_cfg && /^[[:space:]]*mod / && !in_test { in_test = 1; non_test-- }
            { after_cfg = /^[[:space:]]*#\[cfg\(test\)\]/ }
            { total++; if (!in_test) non_test++ }
            !in_test && /^[[:space:]]*pub (unsafe )?(fn|struct|enum|trait|const|type) / { items++ }
            END { printf "%-10s %9d %9d %9d\n", crate, non_test, total, items }'
done | awk '{ print; n += $2; t += $3; p += $4 } END { printf "%-10s %9d %9d %9d\n", "total", n, t, p }'
printf '\n%-16s %5s\n' 'lint waiver' count
grep -rhoE '// lint: allow\([a-z_]+\)' --include='*.rs' --exclude-dir=lint --exclude-dir=target crates src |
    sed -E 's/.*\((.*)\)/\1/' | sort | uniq -c | awk '{ printf "%-16s %5d\n", $2, $1 }'
