#!/usr/bin/env bash
# Kill-and-resume durability check, at process level: a `quasar train
# --checkpoint-dir` run is killed with SIGKILL mid-refinement, resumed
# with `--resume`, and the final model must be byte-identical to an
# uninterrupted run's. Run from the repo root after a release build:
#
#   cargo build --release --bin quasar
#   bash scripts/ci_kill_resume.sh
set -euo pipefail

BIN=${QUASAR_BIN:-target/release/quasar}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# The small preset: refinement runs for tens of seconds, long enough for
# a SIGKILL to land between checkpoints (tiny finishes inside 0.3 s).
"$BIN" generate --out "$WORK/feeds.mrt" --scale small --seed 3

echo "# uninterrupted reference run"
"$BIN" train "$WORK/feeds.mrt" --out "$WORK/ref.model" \
    --checkpoint-dir "$WORK/ckpt-ref"

# SIGKILL the victim at increasing grace periods until an attempt dies
# with a checkpoint on disk. A too-early kill leaves no checkpoint (the
# --resume fallback covers that path, but it is not what this script
# proves), so it retries with a longer window; a run that finishes before
# its kill never takes --resume, so it fails the script.
outcome=none
for grace in 0.3 0.6 1.2 2.5 5 10; do
    rm -rf "$WORK/ckpt-victim" "$WORK/victim.model"
    echo "# victim run, SIGKILL after ${grace}s"
    if timeout -s KILL "$grace" \
        "$BIN" train "$WORK/feeds.mrt" --out "$WORK/victim.model" \
        --checkpoint-dir "$WORK/ckpt-victim" >/dev/null 2>&1; then
        echo "FAIL: run finished within ${grace}s, before it could be killed" >&2
        exit 1
    fi
    if ls "$WORK/ckpt-victim"/ckpt-*.qck >/dev/null 2>&1; then
        outcome=killed
        break
    fi
    echo "# died before the first checkpoint landed; retrying"
done

if [ "$outcome" = none ]; then
    echo "FAIL: never killed the run with a checkpoint on disk" >&2
    exit 1
fi

echo "# resuming from $(ls "$WORK/ckpt-victim"/ckpt-*.qck | tail -1)"
"$BIN" train "$WORK/feeds.mrt" --out "$WORK/victim.model" \
    --checkpoint-dir "$WORK/ckpt-victim" --resume

cmp "$WORK/ref.model" "$WORK/victim.model"
if ls "$WORK/ckpt-victim"/ckpt-*.qck >/dev/null 2>&1; then
    echo "FAIL: checkpoints not cleaned up after success" >&2
    exit 1
fi
echo "OK: killed-and-resumed model is byte-identical to the uninterrupted run"
