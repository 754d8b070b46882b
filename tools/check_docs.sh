#!/usr/bin/env bash
# docs-check: fail when the top-level docs drift from the tree.
#
#  1. Every backtick-quoted repo path in README.md / docs/ARCHITECTURE.md
#     (tokens starting with src/, tests/, bench/, tools/, docs/, examples/, or a
#     top-level *.md / CMakeLists.txt) must exist.
#  2. docs/ARCHITECTURE.md's paper-to-code map must mention every bench harness
#     (bench/bench_*.cc) by file name.
#  3. Every --flag on a distcache_sim command in those docs (continuation lines
#     joined) must be one `distcache_sim --help` lists.
#
# Run from the repo root (the `docs-check` CMake target does):
#   tools/check_docs.sh path/to/distcache_sim
set -u
help=$("${1:?usage: tools/check_docs.sh path/to/distcache_sim}" --help)

fail=0
for doc in README.md docs/ARCHITECTURE.md; do
  if [ ! -f "$doc" ]; then
    echo "docs-check: missing $doc"
    fail=1
    continue
  fi
  # Backtick-quoted tokens without spaces; keep only ones that look like repo paths.
  refs=$(grep -oE '`[A-Za-z0-9_][A-Za-z0-9_./:-]*`' "$doc" | tr -d '`' |
    sed 's/:[0-9]*$//' |
    grep -E '^(src|tests|bench|tools|docs|examples)/|^(README|ROADMAP|PAPER|PAPERS|SNIPPETS|CHANGES)\.md$|^CMakeLists\.txt$' |
    sort -u)
  for ref in $refs; do
    if [ ! -e "$ref" ]; then
      echo "docs-check: $doc references missing path: $ref"
      fail=1
    fi
  done
  # A command starts at a line whose first word is distcache_sim and runs on
  # while its lines end in a backslash.
  flags=$(awk '/^[[:space:]]*(\.\/)?distcache_sim[[:space:]]/ { cmd = 1 }
               cmd { print; cmd = /\\$/ }' "$doc" | grep -oE -- '--[a-z0-9-]+' | sort -u)
  for flag in $flags; do
    if ! printf '%s\n' "$help" | grep -qE -- "^  $flag([= ]|\$)"; then
      echo "docs-check: $doc runs distcache_sim with $flag, which --help does not list"
      fail=1
    fi
  done
done

if [ -f docs/ARCHITECTURE.md ]; then
  for bench in bench/bench_*.cc; do
    name=$(basename "$bench")
    if ! grep -q "$name" docs/ARCHITECTURE.md; then
      echo "docs-check: docs/ARCHITECTURE.md paper-to-code map is missing $name"
      fail=1
    fi
  done
fi

if [ "$fail" -eq 0 ]; then
  echo "docs-check: OK"
fi
exit "$fail"
