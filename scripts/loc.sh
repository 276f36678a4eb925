#!/usr/bin/env bash
# Non-test line counts per crate.
#
# Counts the lines of every crates/<crate>/src/**/*.rs file that come
# before the file's `#[cfg(test)] mod tests` block (the whole file when
# it has none), summed per crate, plus a total.
#
# Usage: scripts/loc.sh [crate-dir ...]
#   scripts/loc.sh                    # every crate under crates/
#   scripts/loc.sh permutation core   # just dp-permutation and dp-core
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi

total=0
for dir in "$@"; do
    src="crates/$dir/src"
    [ -d "$src" ] || { echo "loc.sh: no such crate source dir: $src" >&2; exit 2; }
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "crates/$dir/Cargo.toml" | head -n 1)
    lines=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { if (NR > 1) sum += kept; kept = 0; prev = ""; done = 0 }
        done { next }
        prev ~ /^#\[cfg\(test\)\][[:space:]]*$/ && /^mod tests/ { kept -= 1; done = 1; next }
        { kept += 1; prev = $0 }
        END { print sum + kept }')
    printf '%-16s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-16s %6d\n' "total" "$total"
