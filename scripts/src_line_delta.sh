#!/usr/bin/env bash
# Print the lines added, the lines removed and the net line change under
# src/ between a base ref and the working tree (committed and uncommitted
# changes to tracked files; `git add` new files first so they count).
# The base defaults to HEAD, i.e. uncommitted work only; pass the parent
# commit or the target branch to measure a whole change, e.g.
#
#   scripts/src_line_delta.sh main
#   scripts/src_line_delta.sh origin/main
#
# The diff is taken from the merge base of <base> and HEAD, so commits
# that landed on <base> after the branch point do not count.
#
# Usage: scripts/src_line_delta.sh [base]
set -euo pipefail

base="${1:-HEAD}"
cd "$(git rev-parse --show-toplevel)"
merge_base=$(git merge-base "$base" HEAD)

# --numstat prints "added<TAB>removed<TAB>path"; binary files print "-".
git diff --numstat "$merge_base" -- src/ | awk -v base="$base" '
  $1 != "-" { added += $1; removed += $2 }
  END {
    printf "src/ line delta vs %s\n", base
    printf "added   %d\n", added
    printf "removed %d\n", removed
    printf "net     %+d\n", added - removed
  }'
