#!/usr/bin/env bash
# Fails when EXPERIMENTS.md or DESIGN.md grew by more than 3072 bytes since
# <base>, unless a commit in <base>..HEAD carries a `Docs-growth: <reason>`
# trailer saying why the growth is wanted.
#
#   scripts/docs_growth.sh <base-commit>
#
# CI passes the merge base with the target branch on a pull request and the
# previous tip on a push; the checkout needs the full history (fetch-depth: 0).
set -eu
[ $# -eq 1 ] || { sed -n '2,6p' "$0"; exit 2; }
base=$1
limit=3072
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
git cat-file -e "$base^{commit}" || { echo "base $base is not a commit in this checkout"; exit 1; }

over=0
for f in EXPERIMENTS.md DESIGN.md; do
  old=$(git cat-file -s "$base:$f" 2>/dev/null || echo 0)
  new=$(git cat-file -s "HEAD:$f" 2>/dev/null || echo 0)
  echo "$f: $old -> $new bytes ($((new - old)) against a limit of +$limit)"
  [ $((new - old)) -le $limit ] || over=1
done
[ $over -eq 1 ] || exit 0

reasons=$(git log --format='%(trailers:key=Docs-growth,valueonly)' "$base..HEAD" | sed '/^$/d')
if [ -n "$reasons" ]; then
  echo "allowed by a Docs-growth trailer: $reasons"
  exit 0
fi
echo "docs grew by more than $limit bytes; trim them, or add a 'Docs-growth: <reason>' trailer"
exit 1
