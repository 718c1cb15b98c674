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
# package's src/, tests/ and examples/; perfbench/, scripts/ and the
# vendored packages under crates/vendor/ are not counted (pm-lint and
# the `public_items_only_ratchet_down` test skip crates/vendor too).
# With a revision, that tree is exported (git archive: the working tree
# may be dirty) and the table shows parent -> now and the difference
# per column; both trees are counted by this script.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

# Prints "unit non-test test pub" for the tree rooted at $1, sorted by unit.
# (The second awk sums the partial tables xargs produces when the file
# list spans several invocations of the first.)
count() {
    (cd "$1" && find crates src tests examples -path crates/vendor -prune -o -name '*.rs' -type f -print0 |
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
                unit = p[1] == "crates" ? p[2] : "(root)"
                in_src = p[1] == "crates" ? p[3] == "src" : p[1] == "src"
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
        BEGIN { printf "%-10s %9s %9s %9s\n", "crate", "non-test", "test", "pub items" }
        { printf "%-10s %9d %9d %9d\n", $1, $2, $3, $4; non += $2; test += $3; api += $4 }
        END { printf "%-10s %9d %9d %9d\n", "total", non, test, api }'
    exit
fi

rev=$(git rev-parse --verify "$1^{commit}")
parent_dir=target/loc/parent
rm -rf "$parent_dir"
mkdir -p "$parent_dir"
git archive "$rev" | tar -x -C "$parent_dir"

echo "# parent $(git rev-parse --short "$rev") -> working tree"
join -a1 -a2 -e0 -o 0,1.2,2.2,1.3,2.3,1.4,2.4 <(count "$parent_dir") <(count .) | awk '
    function row(name, n0, n1, t0, t1, a0, a1) {
        printf "%-10s %7d -> %7d (%+5d) %7d -> %7d (%+5d) %5d -> %5d (%+4d)\n",
            name, n0, n1, n1 - n0, t0, t1, t1 - t0, a0, a1, a1 - a0
    }
    BEGIN { printf "%-10s %28s %28s %22s\n", "crate", "non-test", "test", "pub items" }
    { row($1, $2, $3, $4, $5, $6, $7); n0 += $2; n1 += $3; t0 += $4; t1 += $5; a0 += $6; a1 += $7 }
    END { row("total", n0, n1, t0, t1, a0, a1) }'
rm -rf "$parent_dir"
