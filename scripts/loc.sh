#!/usr/bin/env sh
# Non-test source lines per engine/core module: for each .rs file, the number
# of lines before its first `#[cfg(test)]` (the whole file when it has none),
# then a total. This is the one way simplicity PRs count "lines": comments
# and blanks included, unit tests excluded.
#
#   scripts/loc.sh                      every file under crates/{engine,core}/src
#   scripts/loc.sh PATH...              only these files / directories
#
# Paths are relative to the workspace root. POSIX sh + find + awk only.
set -eu

cd "$(dirname "$0")/.."

[ "$#" -gt 0 ] || set -- crates/engine/src crates/core/src

find "$@" -type f -name '*.rs' | LC_ALL=C sort | while IFS= read -r file; do
    awk -v file="$file" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        { n++ }
        END { printf "%6d %s\n", n, file }
    ' "$file"
done | awk '
    { print; total += $1; files++ }
    END { printf "%6d total (%d files)\n", total, files }
'
