#!/usr/bin/env bash
# Non-test / test Rust line counts and the public API surface per crate
# — the figures every simplicity PR reports in CHANGES.md ("PR 12's
# method").
#
#   scripts/loc.sh [<parent-rev>]
#   make loc [PARENT=<rev>]
#
# A line of a file under a `src/` directory is a test line when it lies
# inside an item (a `mod`, `fn`, `use`, statement, ...) whose attribute
# line starts with `#[cfg(test)]`: from that line to the `}` that brings
# the item's brace depth back to zero, or to its `;` when the item has
# no body. Every other line of a `src/` file is a non-test line, so a
# comment that mentions `#[cfg(test)]` cuts nothing. Every .rs file
# outside `src/` (tests/, examples/, benches/) is test lines.
# The third column counts fully-`pub` items: non-test lines that open
# with `pub fn|struct|enum|trait|type|const` (`pub(crate)` and narrower
# do not count).
# Units are the directories under crates/ plus "(root)" for the root
# package's src/, tests/ and examples/; perfbench/ and scripts/ are not
# counted. The vendored packages (crates/vendor/<name>/, whose src/ sits
# one level deeper) form one more unit, "crates/vendor": its row comes
# below `total`, is not part of it, and has no pub-item count (pm-lint
# and the `public_items_only_ratchet_down` test skip crates/vendor too),
# so deleting vendored code shows on the ruler without moving `total`.
# With a revision, that tree is exported (git archive: the working tree
# may be dirty) and the table shows parent -> now and the difference
# per column; both trees are counted by this script.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

# Prints "unit non-test test pub" for the tree rooted at $1, sorted by
# unit; the vendored packages are the unit "crates/vendor".
# (The second awk sums the partial tables xargs produces when the file
# list spans several invocations of the first.)
count() {
    (cd "$1" && find crates src tests examples -name '*.rs' -type f -print0 |
        xargs -0 awk '
            # Scans one line of a test item; 1 when the item ends on it.
            # A `;` ends an item only outside braces and brackets, so
            # `[u8; 4]` in a signature does not.
            function item_ends(s,    i, c) {
                for (i = 1; i <= length(s); i++) {
                    c = substr(s, i, 1)
                    if (c == "{") depth++
                    else if (c == "}") { if (--depth == 0) return 1 }
                    else if (c == "(" || c == "[") nest++
                    else if (c == ")" || c == "]") nest--
                    else if (c == ";" && depth == 0 && nest == 0) return 1
                }
                return 0
            }
            FNR == 1 {
                in_item = 0
                split(FILENAME, p, "/")
                vendored = p[1] == "crates" && p[2] == "vendor"
                unit = vendored ? "crates/vendor" : p[1] == "crates" ? p[2] : "(root)"
                in_src = vendored ? p[4] == "src" : p[1] == "crates" ? p[3] == "src" : p[1] == "src"
            }
            {
                is_test = !in_src || in_item
                if (in_src && !in_item && /^[ \t]*#\[cfg\(test\)\]/) {
                    in_item = is_test = 1
                    depth = nest = 0
                    rest = $0
                    sub(/^[ \t]*#\[cfg\(test\)\]/, "", rest)
                    if (item_ends(rest)) in_item = 0
                } else if (in_item && item_ends($0)) {
                    in_item = 0
                }
                if (is_test) test[unit]++; else non[unit]++
            }
            !is_test && /^[ \t]*pub (fn|struct|enum|trait|type|const) / { api[unit]++ }
            END { for (u in test) print u, non[u] + 0, test[u], api[u] + 0 }
        ' | awk '{ non[$1] += $2; test[$1] += $3; api[$1] += $4 }
                 END { for (u in non) print u, non[u], test[u], api[u] }' | sort)
}

if [ $# -eq 0 ] || [ -z "$1" ]; then
    count . | awk '
        BEGIN { printf "%-13s %9s %9s %9s\n", "crate", "non-test", "test", "pub items" }
        $1 == "crates/vendor" { vn = $2; vt = $3; next }
        { printf "%-13s %9d %9d %9d\n", $1, $2, $3, $4; non += $2; test += $3; api += $4 }
        END {
            printf "%-13s %9d %9d %9d\n", "total", non, test, api
            printf "%-13s %9d %9d\n", "crates/vendor", vn, vt
        }'
    exit
fi

rev=$(git rev-parse --verify "$1^{commit}")
parent_dir=target/loc/parent
rm -rf "$parent_dir"
mkdir -p "$parent_dir"
git archive "$rev" | tar -x -C "$parent_dir"

echo "# parent $(git rev-parse --short "$rev") -> working tree"
join -a1 -a2 -e0 -o 0,1.2,2.2,1.3,2.3,1.4,2.4 <(count "$parent_dir") <(count .) | awk '
    function lines(name, n0, n1, t0, t1) {
        printf "%-13s %7d -> %7d (%+5d) %7d -> %7d (%+5d)", name, n0, n1, n1 - n0, t0, t1, t1 - t0
    }
    function row(name, n0, n1, t0, t1, a0, a1) {
        lines(name, n0, n1, t0, t1)
        printf " %5d -> %5d (%+4d)\n", a0, a1, a1 - a0
    }
    BEGIN { printf "%-13s %28s %28s %22s\n", "crate", "non-test", "test", "pub items" }
    $1 == "crates/vendor" { vn0 = $2; vn1 = $3; vt0 = $4; vt1 = $5; next }
    { row($1, $2, $3, $4, $5, $6, $7); n0 += $2; n1 += $3; t0 += $4; t1 += $5; a0 += $6; a1 += $7 }
    END {
        row("total", n0, n1, t0, t1, a0, a1)
        lines("crates/vendor", vn0, vn1, vt0, vt1)
        printf "\n"
    }'
rm -rf "$parent_dir"
