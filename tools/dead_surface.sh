#!/usr/bin/env bash
# Dead-surface report: every `pub fn`/`struct`/`enum`/`trait` under
# crates/ whose name no code calls outside tests.
#
#   bash tools/dead_surface.sh        # from the repository root
#
# A name counts as called where it appears in code (comments and string
# literals stripped) anywhere in crates/, src/, examples/ or
# benchmark/src/, except:
#   * its own definition line;
#   * `use` / `pub use` items (a re-export is not a caller);
#   * its own crate's `#[cfg(test)]` items;
#   * any `tests/` directory.
# Matching is by name only, so a common name (`new`, `len`, `get`) is
# never reported: the report can miss dead items, but each item it lists
# has no caller outside tests. It prints one `crate  kind  name  file:line`
# row per item, then a count, and always exits 0.
set -euo pipefail
cd "$(dirname "$0")/.."

sources() {
    grep -rl --include='*.rs' '' crates src examples benchmark/src 2>/dev/null \
        | grep -vE '(^|/)(tests|target)/'
}

# One line per code line: `crate<TAB>in_test<TAB>file:line<TAB>code`.
corpus() {
    sources | while IFS= read -r f; do
        awk -v file="$f" '
            BEGIN {
                split(file, part, "/")
                crate = (part[1] == "crates") ? part[2] : part[1]
            }
            {
                line = $0
                gsub(/\\\\/, "", line)                 # escaped backslashes
                gsub(/\\"/, "", line)                  # escaped quotes
                gsub(/"[^"]*"/, "\"\"", line)          # string literals
                gsub(/'\''.'\''/, "", line)            # char literals
                sub(/\/\/.*$/, "", line)               # comments
                if (skip_use) {
                    if (line ~ /;/) skip_use = 0
                    next
                }
                if (line ~ /^[ \t]*(pub(\([a-z:]+\))? )?use /) {
                    if (line !~ /;/) skip_use = 1
                    next
                }
                if (line ~ /^[ \t]*#\[cfg\(test\)\]/) { pending = 1; next }
                in_test = (depth > 0 || pending) ? 1 : 0
                if (pending || depth > 0) {
                    opens = gsub(/\{/, "{", line)
                    closes = gsub(/\}/, "}", line)
                    if (pending && opens > 0) pending = 0
                    else if (pending && line ~ /;/) pending = 0
                    depth += opens - closes
                    if (depth < 0) depth = 0
                }
                printf "%s\t%d\t%s:%d\t%s\n", crate, in_test, file, FNR, line
            }' "$f"
    done
}

# One line per public item: `crate<TAB>kind<TAB>name<TAB>file:line`.
items() {
    awk -F'\t' '
        $1 != "src" && $1 != "examples" && $1 != "benchmark" && $2 == 0 &&
        match($4, /^[ \t]*pub (const |unsafe |async )*(fn|struct|enum|trait) [A-Za-z_][A-Za-z0-9_]*/) {
            decl = substr($4, RSTART, RLENGTH)
            sub(/^[ \t]*pub (const |unsafe |async )*/, "", decl)
            split(decl, w, " ")
            printf "%s\t%s\t%s\t%s\n", $1, w[1], w[2], $3
        }' "$1"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
corpus >"$tmp/corpus"
items "$tmp/corpus" >"$tmp/items"

awk -F'\t' '
    FNR == NR {
        n++
        crate[n] = $1; kind[n] = $2; name[n] = $3; loc[n] = $4
        wanted[$3] = 1
        def[$3, $4] = 1
        next
    }
    {
        code = $4
        gsub(/[^A-Za-z0-9_]+/, " ", code)
        k = split(code, tok, " ")
        for (i = 1; i <= k; i++) {
            t = tok[i]
            if (!(t in wanted) || ((t, $3) in def)) continue
            if ($2 == 0) used[t]++
            else { test_total[t]++; test_in[t, $1]++ }
        }
    }
    END {
        dead = 0
        for (i = 1; i <= n; i++) {
            t = name[i]
            other_tests = test_total[t] - test_in[t, crate[i]]
            if (used[t] + other_tests == 0) {
                printf "%-10s %-6s %-36s %s\n", crate[i], kind[i], t, loc[i]
                dead++
            }
        }
        printf "%d of %d public items have no caller outside tests\n", dead, n
    }' "$tmp/items" "$tmp/corpus"
