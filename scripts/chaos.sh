#!/bin/sh
# chaos.sh — the crash-safety torture loop, also available as `make chaos`:
# the full fault-injection and kill-and-resume suites, in-process (under the
# race detector) and via subprocess SIGKILL of the real owlclass binary.
# Slower than verify.sh's short chaos step; run it when touching the
# checkpoint format, the resume path, or the worker pool's barriers.
set -eu
cd "$(dirname "$0")/.."

echo "== in-process kill-and-resume + chaos suites (-race)"
go test -race -count=1 -v -run 'TestKillAndResume|TestChaos|TestResumeRejects|TestSnapshotDecodeFuzz|TestCheckpoint' ./internal/core/
echo "== reasoner decorator suites (-race): chaos, cache port, single flight"
go test -race -count=1 -run 'TestChaos|TestCachePort|TestCached' ./internal/reasoner/
echo "== subprocess SIGKILL driver (owlclass -checkpoint/-resume)"
go test -count=1 -v -run 'TestCLIKillAndResume|TestCLIResumeRejectsCorruptSnapshot' .
echo "== owlclass cross-policy smoke on the shared corpus (scripts/corpus.sh)"
CORPUS=$(sh scripts/corpus.sh)
for SCHED in roundrobin async; do
    go run ./cmd/owlclass -sched "$SCHED" -workers 4 "$CORPUS" \
        >".corpus/taxonomy.$SCHED"
done
cmp .corpus/taxonomy.roundrobin .corpus/taxonomy.async
echo "chaos: OK"
