#!/usr/bin/env bash
# Non-test Go line counts: the total, then one row per package directory.
# Counts physical lines of the *.go files git tracks (plus untracked,
# unignored ones), so build outputs never skew it. Usage: scripts/loc.sh
# [path...] (default: the whole repository).
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

git ls-files -z --cached --others --exclude-standard -- "${@:-.}" |
	grep -z '\.go$' | grep -zv '_test\.go$' |
	xargs -0 -r wc -l |
	awk '$2 != "total" {
		dir = $2; if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		lines[dir] += $1; files[dir]++; total += $1; n++
	}
	END {
		printf "%7d  %3d files  total (non-test *.go)\n", total, n
		for (d in lines) printf "%7d  %3d files  %s\n", lines[d], files[d], d | "sort -k4"
	}'
