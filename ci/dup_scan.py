#!/usr/bin/env python3
"""Duplicate-window scan: is product code written twice?

Reads the non-test lines of every `crates/*/src/**/*.rs` (a file up to
its first `#[cfg(test)]`), normalises whitespace, drops blank and comment
lines and lines that only open or close a block (braces, parentheses,
commas), and counts for every pair of distinct files the distinct 6-line
windows that occur in both. Prints the pairs that share any, most first,
and exits 1 when a pair shares more than 8.

Usage: dup_scan.py [REPO_ROOT]
"""

import collections
import glob
import itertools
import os
import re
import sys

WINDOW = 6
LIMIT = 8
LONE_BRACE = re.compile(r"^[{}(),]+$")


def product_lines(path):
    lines = []
    with open(path, encoding="utf-8") as source:
        for raw in source:
            line = " ".join(raw.split())
            if line.startswith("#[cfg(test)]"):
                break
            if line and not line.startswith("//") and not LONE_BRACE.match(line):
                lines.append(line)
    return lines


def main(root):
    files_of = collections.defaultdict(set)
    pattern = os.path.join(root, "crates", "*", "src", "**", "*.rs")
    for path in sorted(glob.glob(pattern, recursive=True)):
        lines = product_lines(path)
        for i in range(len(lines) - WINDOW + 1):
            files_of[tuple(lines[i : i + WINDOW])].add(os.path.relpath(path, root))
    shared = collections.Counter()
    for files in files_of.values():
        shared.update(itertools.combinations(sorted(files), 2))
    for (a, b), n in shared.most_common():
        print(f"{n:4d}  {a} <-> {b}")
    worst = max(shared.values(), default=0)
    print(f"worst pair shares {worst} windows (limit {LIMIT})")
    return 1 if worst > LIMIT else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "."))
