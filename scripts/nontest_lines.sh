#!/usr/bin/env bash
# Prints the non-test line count of the Rust sources: for every `.rs`
# file under `src/`, `crates/*/src` and `examples/`, the lines before its
# first `#[cfg(test)]` line in column 0 (all of its lines if it has none),
# summed. An indented `#[cfg(test)]` gates one statement, not the rest of
# the file, so it does not end the count.
# Integration tests (`tests/`, `crates/*/tests`), `perfbench/` and
# `vendor/` are not counted. Run from the repo root:
#
#   bash scripts/nontest_lines.sh
set -euo pipefail

find src crates/*/src examples -name '*.rs' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' |
    awk '{ total += $1 } END { print total + 0 }'
