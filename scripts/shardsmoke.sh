#!/usr/bin/env bash
# Shard-determinism smoke: the sharded kernel's contract end to end through
# the CLI. The s1 figure bytes must be identical at -shards 1 and -shards 4
# (the in-repo tests pin 1 == 2 == 4 at study level; this checks the flag
# plumbing too), and the -shards 4 run must not take more than 1.5x the
# -shards 1 wall on this machine. The bound is loose on purpose: with fewer
# cores than shards the honest cost is a few percent, while a window barrier
# that spins without yielding — the failure this guards against — is 20x.
# Output lands in $OUTDIR. Exits nonzero on any mismatch.
set -euo pipefail

OUTDIR="${OUTDIR:-shardsmoke-out}"
BIN="$OUTDIR/figures"

mkdir -p "$OUTDIR"
go build -o "$BIN" ./cmd/figures

wall_ms() { # wall_ms SHARDS: run s1 at that shard count, print elapsed ms
  local t0 t1
  t0=$(date +%s%N)
  "$BIN" -only s1 -shards "$1" -out "$OUTDIR/sh$1" > "$OUTDIR/sh$1.log"
  t1=$(date +%s%N)
  echo $(( (t1 - t0) / 1000000 ))
}

sh1=$(wall_ms 1)
sh4=$(wall_ms 4)
cmp "$OUTDIR/sh1/s1.txt" "$OUTDIR/sh4/s1.txt"
echo "s1 wall: -shards 1 ${sh1} ms, -shards 4 ${sh4} ms"
sed -n '/sharded-kernel windows/,$p' "$OUTDIR/sh4.log"
if (( sh4 * 2 > sh1 * 3 )); then
  echo "-shards 4 took more than 1.5x the -shards 1 wall" >&2
  exit 1
fi
