#!/usr/bin/env bash
# Kill -9 / restore soak (experiment A14, EXPERIMENTS.md).
#
# Proves the durability contract end to end, on the real binary:
#
#   1. A live reactor run under 5% frame drop records its sink-ingestion
#      schedule as a durable event stream (--dump-stream), oracle-checked.
#   2. A reference daemon consumes the stream uninterrupted; its occurrence
#      log is the ground truth.
#   3. For each engine (hier / central / slicing), the daemon is killed
#      with SIGKILL mid-ingestion, restarted with --restore, and the
#      combined occurrence log must be byte-identical to the reference.
#   4. Deterministic kill-point sweep via --crash-after (exit 137, no
#      final checkpoint) at several stream positions, same oracle.
#
# Usage: scripts/restore_soak.sh [path-to-hpd_sim]
set -euo pipefail

SIM="${1:-./build/tools/hpd_sim}"
[ -x "$SIM" ] || { echo "restore_soak: $SIM not executable" >&2; exit 2; }
SIM="$(cd "$(dirname "$SIM")" && pwd)/$(basename "$SIM")"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/hpd-restore-soak.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

STREAM=stream.evt

echo "== phase 1: live reactor run (5% drop), record event stream =="
timeout 120 "$SIM" --live \
  --topology dary:2:3 --workload pulse:rounds=12 --seed 7 \
  --chaos drop=0.05 --dump-stream "$STREAM" --json > live.json
grep -q '"oracle": "PASS"' live.json

for det in hier central slicing; do
  echo "== engine $det: reference run =="
  timeout 60 "$SIM" --daemon --detector "$det" --stream "$STREAM" \
    --occ-log "ref-$det.csv" --json > /dev/null

  echo "== engine $det: SIGKILL mid-ingestion, then restore =="
  rm -rf "ckpt-$det"
  # Throttled so the kill lands mid-stream; if the daemon finishes first
  # the restore is a no-op and the comparison still gates correctness.
  # No timeout(1) wrapper here: SIGKILL must hit the daemon itself, not a
  # wrapper that would die and orphan it (the throttle bounds the runtime).
  "$SIM" --daemon --detector "$det" --stream "$STREAM" \
    --occ-log "kill-$det.csv" --ckpt-dir "ckpt-$det" --ckpt-every 5 \
    --throttle-us 10000 --json > /dev/null &
  pid=$!
  sleep 0.3
  kill -9 "$pid" 2>/dev/null || echo "  (daemon finished before the kill)"
  wait "$pid" 2>/dev/null || true
  timeout 60 "$SIM" --daemon --detector "$det" --stream "$STREAM" \
    --occ-log "kill-$det.csv" --ckpt-dir "ckpt-$det" --ckpt-every 5 \
    --restore --json > "restore-$det.json"
  cmp "ref-$det.csv" "kill-$det.csv"
  echo "  restored ok: $(grep -o '"restore_generation": [0-9]*' "restore-$det.json" || true)"
done

echo "== deterministic kill-point sweep (--crash-after) =="
for k in 10 25 37 50 64 79 83; do
  for det in hier slicing; do
    rm -rf ckpt-sweep
    rc=0
    timeout 60 "$SIM" --daemon --detector "$det" --stream "$STREAM" \
      --occ-log sweep.csv --ckpt-dir ckpt-sweep --ckpt-every 7 \
      --crash-after "$k" --json > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 137 ] || { echo "crash-after $k/$det: exit $rc != 137" >&2; exit 1; }
    timeout 60 "$SIM" --daemon --detector "$det" --stream "$STREAM" \
      --occ-log sweep.csv --ckpt-dir ckpt-sweep --ckpt-every 7 \
      --restore --json > /dev/null
    cmp "ref-$det.csv" sweep.csv || { echo "diverged at kill=$k det=$det" >&2; exit 1; }
  done
done

echo "restore_soak: all occurrence logs byte-identical to the reference"
