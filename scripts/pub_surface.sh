#!/usr/bin/env bash
# Prints the public surface of each library crate under crates/: the number
# of `pub` item declarations (functions and methods, types, traits,
# constants, statics, modules and re-exports) in its src/, then the total.
#
#   bash scripts/pub_surface.sh
#
# Restricted visibility (`pub(crate)`, `pub(super)`, `pub(in …)`) and struct
# fields are not counted. Binaries (src/bin/) and top-level `#[cfg(test)]`
# modules are skipped; integration tests, examples and benches live outside
# src/ and are never read.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -not -path '*/src/bin/*' -print0 \
        | xargs -0 awk '
            FNR == 1 { skip = 0; pending = 0 }
            skip { if ($0 ~ /^}/) skip = 0; next }
            pending && /^mod [A-Za-z_0-9]+ *\{/ { skip = 1; pending = 0; next }
            { pending = ($0 ~ /^#\[cfg\(test\)\]/) }
            /^[ \t]*pub[ \t]+((const|async|unsafe|extern( "[^"]*")?)[ \t]+)*(fn|struct|enum|union|trait|type|const|static|mod|use)[ \t]/ { n++ }
            END { print n + 0 }'
}

total=0
printf '%-12s %s\n' crate pub_items
for dir in crates/*/; do
    name=$(basename "$dir")
    n=$(count "$dir/src")
    total=$((total + n))
    printf '%-12s %s\n' "$name" "$n"
done
printf '%-12s %s\n' total "$total"
