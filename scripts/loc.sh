#!/bin/sh
# Non-test source lines per crate: for every .rs file under
# crates/*/src (or under the directories / files given as arguments),
# the lines before the file's first `#[cfg(test)]` that are neither
# blank nor a `//` comment (doc comments included), summed per crate,
# plus a total. The number simplicity PRs report in CHANGES.md.
# A `#[cfg(test)]` that declares an out-of-line `mod tests;` does not
# end the count, and that module's `tests.rs` is not counted.
#
#   scripts/loc.sh                          # every crate
#   scripts/loc.sh crates/query/src crates/serve/src/server.rs
set -eu
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- crates/*/src
find "$@" -name '*.rs' ! -name tests.rs -type f | sort | while IFS= read -r file; do
    awk -v file="$file" '
        test_attr && /^[[:space:]]*mod tests;/ { test_attr = 0; next }
        test_attr { exit }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test_attr = 1; next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0, file }
    ' "$file"
done | awk '
    {
        split($2, part, "/")
        crate = part[1] "/" part[2]
        lines[crate] += $1
        total += $1
    }
    END {
        for (crate in lines) printf "%7d  %s\n", lines[crate], crate | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }
'
