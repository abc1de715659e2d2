#!/usr/bin/env bash
# code_lines.sh <file>... — the size figure simplicity PRs quote: lines of
# code before the first `#[cfg(test)]`, with blank lines and comment-only
# lines (`//`, `///`, `//!`) left out. One row per file, then the total.
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 <file>..." >&2
    exit 2
fi

awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { lines[FILENAME]++; total++ }
    END {
        for (i = 1; i < ARGC; i++) printf "%6d %s\n", lines[ARGV[i]], ARGV[i]
        if (ARGC > 2) printf "%6d total\n", total
    }
' "$@"
