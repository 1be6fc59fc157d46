#!/bin/sh
# verify.sh — the repository's pre-merge gate, also available as `make verify`:
# full build, vet, every test (the perfbench module's too, so a removal that
# breaks the benchmark's test build fails here), and the race detector over
# the packages with concurrent hot paths (classifier core, tableau arenas,
# caching layer).
set -eu
cd "$(dirname "$0")/.."

# step closes the running step, printing its elapsed seconds, and opens
# the next one, printing its title; a bare `step` closes the last one.
begin=$(date +%s)
started=
step() {
    now=$(date +%s)
    if [ -n "$started" ]; then
        echo "   ($((now - started)) s)"
    fi
    started=$now
    if [ $# -gt 0 ]; then
        echo "== $*"
    fi
}

step "go build ./..."
go build ./...
step "go vet ./..."
go vet ./...
step "go test ./..."
go test ./...
step "perfbench: the benchmark module's own build and tests"
(cd perfbench && go test ./...)
step "bitset: Test, Set and Clear of Set and Atomic stay inlinable (go build -gcflags=-m)"
inlined=$(go build -gcflags=-m ./internal/bitset/ 2>&1 | sed 's/.*: //')
for op in '(*Set).Test' '(*Set).Set' '(*Set).Clear' '(*Atomic).Test' '(*Atomic).Set' '(*Atomic).Clear'; do
    if ! printf '%s\n' "$inlined" | grep -qxF "can inline $op"; then
        echo "verify: bitset $op is no longer inlinable" >&2
        exit 1
    fi
done
step "go test -race (core, tableau, reasoner, el, taxonomy, bitset)"
go test -race ./internal/core/... ./internal/tableau/... ./internal/reasoner/... ./internal/el/... ./internal/taxonomy/... ./internal/bitset/...
step "EL saturation suite: sequential oracle (rows, and the links of live roles), live roles, pure atoms, worker counts, cancellation, row seeding; the prepass's row-wise claims, basic mode's P-bit claims included, against the per-fact reference (-race -count=10)"
go test -race -count=10 -run 'TestSaturationMatchesOracle|TestLiveRoles|TestPureAtoms|TestQuickWorkerCountIrrelevant|TestSaturationCancelled|TestFragmentSeeds' ./internal/el/
go test -race -count=10 -run 'TestPrepassCountersExample|TestNewStateFill|TestPrepassRowsMatchPerFact' ./internal/core/
step "counter record: cycle deltas sum to Stats under both policies, checkpoint counter layout, per-task tallies settle every pair once, virtual charges, word-parallel pruning vs the per-bit reference and from concurrent workers; EL queries refuse foreign concepts (-race -count=3)"
go test -race -count=3 -run 'TestStatsAndPruning|TestCheckpointCounterLayout|TestPairAccounting|TestOracleChargesVirtualCost|TestQuickPruneMatchesPerBit|TestConcurrentPrunesKeepReachability' ./internal/core/
go test -race -count=3 -run 'TestQueriesRefuseForeignConcepts' ./internal/el/
step "phase 3: word-parallel contraction, closure and reduction vs the per-bit reference; tile-pair, transpose and NextAndNot helpers; taxonomy.Build's classes, ⊥ and node IDs (-race -count=3)"
go test -race -count=3 -run 'TestQuickPhase3MatchesPerBit|TestWorkerLoadsRecorded' ./internal/core/
go test -race -count=3 -run 'TestMutualPairsMatchesPerBit|TestNextAndNotMatchesPerBit|TestTransposeMatchesPerBit' ./internal/bitset/
go test -race -count=3 -run 'TestQuickFromSubsumersInvariants' ./internal/taxonomy/
step "complete EL fragments classified from the saturation's rows, without P and K, against the K path, brute force and el.ClassifyContext; chaos seeds give independent fault schedules (-race)"
go test -race -count=1 -timeout 10m -run 'TestQuickCompleteFragmentPath' ./internal/core/
go test -race -count=1 -timeout 5m -run 'TestChaosSeedsIndependent' ./internal/reasoner/
step "cheap-first pipeline equivalence suite, brute force included (-race)"
go test -race -count=1 -run 'TestQuickPipelineEquivalence|TestPipelineEquivalenceOntogen|TestPipelineReducesCalls|TestPrepassFragmentUnsatConcept|TestQuickMatchesBruteForce' ./internal/core/
step "model-filter rows: rows vs pairwise merges, panicking and cancelled row builds (-race -count=3)"
go test -race -count=3 -run 'TestFilterRowsMatchPairwise|TestDisprovesSubsSound' ./internal/tableau/
go test -race -count=3 -run 'TestRowFilterFaults' ./internal/core/
step "crash-safety suite: kill-and-resume + chaos soundness, old, damaged and unfinished snapshots, finished checkpoints adopted and resumed under both policies, both modes and the pipeline off and on, the kernel left out of checkpoints (-race)"
go test -race -count=1 -run 'TestKillAndResumeEquivalence|TestChaosPanicSoundness|TestResumeRejectsBadSnapshots|TestAdoptRejectsBadFiles|TestAdoptRejectsIncomplete|TestAdoptCompletedCheckpoint|TestCheckpointIgnoresKernel|TestCheckpointResumeCompletedRun|TestKernelCheckpointRoundTrip|TestSnapshotDecodeFuzz|TestSnapshotKernelDecodeFuzz' ./internal/core/
step "scheduler suite: roundrobin/async equivalence, stealing deques, epoch checkpoints (-race)"
go test -race -count=1 -run 'TestQuickCrossPolicyEquivalence|TestCrossPolicyEquivalenceOntogen|TestWorkStealingActuallySteals|TestSchedulingValidation|TestDequeOwnerThiefProperty|TestDequeLastElementRace|TestWorkerQueueResetLateThief|TestBarrierAssertsDequesEmpty|TestPoolStealingBalancesSkew|TestKillAndResumeAsync|TestAsyncQuiescesLessThanBarrierMode' ./internal/core/

step "query-kernel equivalence suite: kernel vs DAG answers (-race)"
go test -race -count=1 -run 'TestKernelEquivalenceRandom|TestKernelEquivalenceOntogen' ./internal/taxonomy/

step "owld serving suite: registry + admission + drain (-race)"
go test -race -count=1 ./internal/server/

step "owld end-to-end smoke: daemon answers byte-identical to owlclass"
sh scripts/serve_smoke.sh

step "owld durable-registry drill: SIGKILL + chaos re-adoption + eviction"
sh scripts/serve_chaos.sh

# Static analysis beyond vet, when the tools are installed. staticcheck
# failures are hard errors; govulncheck needs the network for its vuln DB,
# so an offline/transient failure only warns.
if command -v staticcheck >/dev/null 2>&1; then
    step "staticcheck ./..."
    staticcheck ./...
else
    step "staticcheck not installed; skipping"
fi
if command -v govulncheck >/dev/null 2>&1; then
    step "govulncheck ./..."
    govulncheck ./... || echo "verify: WARNING: govulncheck failed (network or DB unavailable); not fatal"
else
    step "govulncheck not installed; skipping"
fi
step
echo "verify: OK ($(( $(date +%s) - begin )) s)"
