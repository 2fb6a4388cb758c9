#!/usr/bin/env bash
# Panic-site ceiling: counts `panic(` in non-test .go files outside bench/
# and fails when the count exceeds CEILING. The count may only go down
# (ROADMAP: nothing reachable from a flag, a datagram or a fault spec may
# panic): a PR that removes sites lowers CEILING to the new count in the
# same change; a PR that needs a new invariant panic removes another first.
set -euo pipefail

CEILING=61

cd "$(dirname "$0")/.."
sites=$(grep -rn --include='*.go' 'panic(' . | grep -v '_test\.go:' | grep -v '^\./bench/' || true)
count=$(printf '%s' "$sites" | grep -c '' || true)
echo "panic( sites in non-test code outside bench/: $count (ceiling $CEILING)"
if (( count > CEILING )); then
  echo "panic-site count $count exceeds the ceiling $CEILING:" >&2
  echo "$sites" >&2
  exit 1
fi
if (( count < CEILING )); then
  echo "note: lower CEILING in scripts/paniccount.sh to $count"
fi
