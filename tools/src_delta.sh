#!/usr/bin/env bash
# Lines added, removed and net under src/ between a base commit and the
# working tree, summed from `git diff --numstat` (new files count once they
# are staged). The number every change reports against the aim of a smaller
# src/.
#
# Usage: tools/src_delta.sh [base]   (default: HEAD, i.e. the uncommitted
#        change; pass the parent commit to measure a committed one)
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-HEAD}"
git diff --numstat "$base" -- src/ | awk -v base="$base" '
  $1 != "-" { added += $1; removed += $2 }
  END { printf "src/ vs %s: +%d -%d net %+d lines\n", base, added, removed, added - removed }'
