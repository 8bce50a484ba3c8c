#!/usr/bin/env bash
# Counts the repository's Rust lines in two parts, the figures CHANGES.md
# records for a change:
#
#   non-test  lines of .rs files outside any tests/ directory, each file
#             counted up to its first #[cfg(test)] line;
#   test      every other .rs line.
#
# perfbench/ and every target/ directory are left out.
#
#   .github/count-lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."
find . -name target -type d -prune -o -path ./perfbench -prune -o -name '*.rs' -print0 |
  xargs -0 awk '
    FNR == 1 { test = FILENAME ~ /\/tests\// }
    !test && /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
    { if (test) t++; else n++ }
    END { print n + 0, t + 0 }' |
  awk '{ n += $1; t += $2 } END { printf "non-test %d\ntest %d\n", n, t }'
