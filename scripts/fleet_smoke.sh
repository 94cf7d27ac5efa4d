#!/usr/bin/env bash
# Fleet crash-safety smoke test.
#
# Runs the same sharded corpus through `mufuzz fleet run` four times:
#
#   1. reference     — uninterrupted, 2 local workers
#   2. coordinator   — SIGKILL the coordinator mid-run, then kill the
#                      orphaned workers, then resume with identical
#                      arguments
#   3. worker        — SIGKILL one worker mid-run and let the
#                      coordinator reassign its shard lease
#   4. daemon        — daemon dispatch: two `mufuzz serve` daemons, one
#                      worker each, the campaigns run in the daemons
#
# and asserts that every run produces byte-identical aggregate CSVs
# and fleet summaries, and that both daemons ran campaigns. Exits nonzero on any mismatch. $WORK (default:
# a fresh mktemp dir) is left behind on failure for artifact upload.
set -euo pipefail

CLI=${CLI:-_build/default/bin/mufuzz_cli.exe}
WORK=${WORK:-$(mktemp -d /tmp/fleet-smoke.XXXXXX)}
# Small budgets keep the smoke under a minute, but the run must stay
# alive long enough for the kills below to land mid-run.
FLEET_ARGS=(--tools MuFuzz,sFuzz --budget-small 120 --budget-large 200
  --checkpoint-every 40)

say() { printf '\n== %s ==\n' "$*"; }

if [ ! -x "$CLI" ]; then
  echo "error: $CLI not built (run: dune build bin/mufuzz_cli.exe)" >&2
  exit 1
fi
CLI=$(realpath "$CLI")
mkdir -p "$WORK"
cd "$WORK"
echo "workdir: $WORK"

say "shard a 1x D1 corpus (50 contracts, 4 shards)"
"$CLI" fleet shard --d1-scale 1 --shards 4 --out corpus

run_fleet() { # run_fleet <state-dir> <csv-dir> [extra args...]
  local state=$1 csv=$2
  shift 2
  "$CLI" fleet run --state "$state" --corpus corpus \
    "${FLEET_ARGS[@]}" --workers 2 --out "$csv" "$@"
}

say "reference run (uninterrupted)"
run_fleet ref-state ref-csv

say "coordinator SIGKILL mid-run"
# Background the binary itself — NOT the run_fleet function: a
# backgrounded function runs in a subshell, so $! would name the
# subshell and the kill below would miss the coordinator.
"$CLI" fleet run --state kill-state --corpus corpus \
  "${FLEET_ARGS[@]}" --workers 2 --out kill-csv --status 1 &
coord=$!
sleep 3
if ! kill -9 "$coord" 2>/dev/null; then
  echo "error: coordinator finished before the kill — raise the" >&2
  echo "budgets in FLEET_ARGS so the smoke run lasts past the sleep" >&2
  exit 1
fi
wait "$coord" 2>/dev/null || true
echo "coordinator $coord killed"
# The orphaned workers keep fuzzing their leased shards; kill them too
# so the resume replays in-flight shards from checkpoints. ([f]leet
# keeps the pattern from matching pkill's own command line.)
sleep 0.5
pkill -9 -f "[f]leet worker" 2>/dev/null || true
sleep 0.5
"$CLI" fleet status --state kill-state
done_after_kill=$("$CLI" fleet status --state kill-state |
  sed -n 's|^\([0-9]*\)/[0-9]* shards done.*|\1|p')
shards_total=$("$CLI" fleet status --state kill-state |
  sed -n 's|^[0-9]*/\([0-9]*\) shards done.*|\1|p')
if [ "$done_after_kill" -ge "$shards_total" ]; then
  echo "error: all $shards_total shards were already done at kill" >&2
  echo "time — the resume below would test nothing" >&2
  exit 1
fi

say "resume with identical arguments"
run_fleet kill-state kill-csv

say "worker SIGKILL mid-run (lease reassignment)"
"$CLI" fleet run --state wkill-state --corpus corpus \
  "${FLEET_ARGS[@]}" --workers 2 --out wkill-csv \
  --metrics wkill-metrics.txt &
coord=$!
sleep 3
# Kill the oldest worker; the coordinator reaps it and reassigns.
if pkill -9 -o -f "[f]leet worker" 2>/dev/null; then
  echo "killed one worker"
else
  echo "error: no worker alive to kill — raise the budgets" >&2
  kill -9 "$coord" 2>/dev/null || true
  exit 1
fi
wait "$coord"
grep "^mufuzz_fleet_lease_reassignments_total" wkill-metrics.txt
reassigned=$(sed -n 's/^mufuzz_fleet_lease_reassignments_total \([0-9]*\)/\1/p' \
  wkill-metrics.txt)
if [ "${reassigned:-0}" -lt 1 ]; then
  echo "error: worker was killed but no lease reassignment recorded" >&2
  exit 1
fi

say "daemon dispatch (two serve daemons)"
daemons=()
stop_daemons() {
  for pid in "${daemons[@]}"; do kill "$pid" 2>/dev/null || true; done
}
trap stop_daemons EXIT
for d in daemon-a daemon-b; do
  "$CLI" serve --state "$d" > "$d.log" 2>&1 &
  daemons+=($!)
done
for d in daemon-a daemon-b; do
  for _ in $(seq 1 50); do
    [ -S "$d/serve.sock" ] && break
    sleep 0.2
  done
  test -S "$d/serve.sock"
done
run_fleet daemon-state daemon-csv \
  --daemon daemon-a/serve.sock --daemon daemon-b/serve.sock
for d in daemon-a daemon-b; do
  "$CLI" client --socket "$d/serve.sock" '{"op":"shutdown"}' > /dev/null
done
for pid in "${daemons[@]}"; do wait "$pid"; done
trap - EXIT
for d in daemon-a daemon-b; do
  n=$(find "$d" -mindepth 2 -maxdepth 2 -name report.json | wc -l)
  if [ "$n" -lt 1 ]; then
    echo "error: daemon $d completed no campaigns" >&2
    exit 1
  fi
  echo "ok: $d completed $n campaigns"
done

say "compare aggregates"
for f in fig5_small.csv fig5_large.csv fig6.csv findings.csv; do
  cmp ref-csv/"$f" kill-csv/"$f"
  cmp ref-csv/"$f" wkill-csv/"$f"
  cmp ref-csv/"$f" daemon-csv/"$f"
  echo "ok: $f byte-identical across all four runs"
done
cmp ref-state/fleet-summary.json kill-state/fleet-summary.json
cmp ref-state/fleet-summary.json wkill-state/fleet-summary.json
cmp ref-state/fleet-summary.json daemon-state/fleet-summary.json
echo "ok: fleet-summary.json byte-identical across all four runs"

say "fleet smoke passed"
rm -rf "$WORK"
