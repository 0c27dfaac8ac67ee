#!/usr/bin/env sh
# Public-surface gate: a library function is `pub` only when code outside its
# crate names it. For each crate under crates/, every `pub fn` declared in
# src/ (src/bin excluded) before a file's first `#[cfg(test)]` must be named
# by some .rs file outside that crate's src/: another crate, a tests/
# directory, examples/, benchmark/, or the crate's own src/bin. `target/`
# directories are skipped. Prints each unnamed function as `crate: name` and
# exits 1 when there is any.
#
# It matches names, not paths, so a name used anywhere else (`new`, `apply`)
# always passes: the gate can under-report, never over-report, and needs no
# allowlist. POSIX sh + find + grep + awk only.
set -eu

cd "$(dirname "$0")/.."

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

find . -name target -prune -o -type f -name '*.rs' -print | LC_ALL=C sort >"$scratch/all"

unnamed=0
for manifest in crates/*/Cargo.toml; do
    dir="${manifest%/Cargo.toml}"
    [ -d "$dir/src" ] || continue
    crate="$(awk -F'"' '/^name[[:space:]]*=/ { print $2; exit }' "$manifest")"

    # Declared: `pub fn` names in the crate's library sources.
    grep "^\./$dir/src/" "$scratch/all" | grep -v "^\./$dir/src/bin/" |
        while IFS= read -r file; do
            awk '
                /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
                {
                    line = $0
                    sub(/^[[:space:]]*/, "", line)
                    if (line !~ /^pub[[:space:]]/) next
                    sub(/^pub[[:space:]]+/, "", line)
                    while (line ~ /^(const|unsafe|async|extern[[:space:]]+"[^"]*")[[:space:]]/)
                        sub(/^[^[:space:]]+([[:space:]]+"[^"]*")?[[:space:]]+/, "", line)
                    if (line !~ /^fn[[:space:]]/) next
                    sub(/^fn[[:space:]]+/, "", line)
                    match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
                    if (RLENGTH > 0) print substr(line, 1, RLENGTH)
                }
            ' "$file"
        done | LC_ALL=C sort -u >"$scratch/declared"

    # Named: every identifier in a file outside the crate's library sources.
    grep -v "^\./$dir/src/" "$scratch/all" >"$scratch/outside" || true
    grep "^\./$dir/src/bin/" "$scratch/all" >>"$scratch/outside" || true
    : >"$scratch/named"
    if [ -s "$scratch/outside" ]; then
        tr '\n' '\0' <"$scratch/outside" | xargs -0 grep -ohE '[A-Za-z_][A-Za-z0-9_]*' |
            LC_ALL=C sort -u >"$scratch/named"
    fi

    for name in $(LC_ALL=C comm -23 "$scratch/declared" "$scratch/named"); do
        echo "$crate: $name"
        unnamed=$((unnamed + 1))
    done
done

if [ "$unnamed" -gt 0 ]; then
    echo "check_surface: FAIL — $unnamed pub fn named by no code outside its crate" >&2
    echo "  (make each pub(crate) or private, then delete what dead_code flags)" >&2
    exit 1
fi
echo "check_surface: 0 unnamed pub fn"
