package core

import (
	"errors"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"parowl/internal/dl"
	"parowl/internal/ontogen"
	"parowl/internal/reasoner"
)

// TestQuickCrossPolicyEquivalence is the scheduler-independence property:
// for random ontologies, every scheduling policy must produce the
// byte-identical taxonomy for every (mode, workers, prepass, seed)
// combination. Run under -race this also exercises the stealing pool's
// synchronization against real classification workloads.
func TestQuickCrossPolicyEquivalence(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, tb := range []*dl.TBox{
			randomTaxonomyTBox(rng, 4+rng.Intn(10)),
			randomMixedTBox(rng, 5+rng.Intn(10)),
		} {
			r := tableauFactory(tb)
			mode := Optimized
			if rng.Intn(2) == 0 {
				mode = Basic
			}
			w := 1 + rng.Intn(8)
			prepass := rng.Intn(2) == 0
			base := Options{
				Reasoner: r, Workers: w, Mode: mode, Seed: seed,
				RandomCycles: 1 + rng.Intn(3), ELPrepass: prepass,
			}
			var want string
			for _, sched := range allSchedulings {
				o := base
				o.Scheduling = sched
				res, err := Classify(tb, o)
				if err != nil {
					t.Logf("seed %d %s sched=%v: %v", seed, tb.Name, sched, err)
					return false
				}
				got := res.Taxonomy.Render()
				if sched == RoundRobin {
					want = got
					continue
				}
				if got != want {
					t.Logf("seed %d %s mode=%v w=%d prepass=%v: %v taxonomy differs from roundrobin\n got:\n%s\nwant:\n%s",
						seed, tb.Name, mode, w, prepass, sched, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestCrossPolicyEquivalenceOntogen runs the identity check on a scaled
// paper corpus whose EL fragment is partial, so both policies still do
// pairwise work after seeding, and additionally pins the
// one-sat-per-concept property: with the EL prepass on, the plug-in's
// sat? load is exactly one sweep probe per concept the fragment did not
// prove unsatisfiable, under every policy — stealing must not duplicate
// or drop probes.
func TestCrossPolicyEquivalenceOntogen(t *testing.T) {
	if testing.Short() {
		t.Skip("ontogen corpora are slow under -short")
	}
	p, ok := ontogen.ByName("rnao_functional")
	if !ok {
		t.Fatal("profile missing")
	}
	for _, seed := range []int64{1, 2} {
		tb, err := ontogen.Mini(p, 12).Generate(seed)
		if err != nil {
			t.Fatalf("generate seed %d: %v", seed, err)
		}
		wantSat := fragmentUnknowns(t, tb)
		var want string
		for _, sched := range allSchedulings {
			for _, w := range []int{1, 3, 8} {
				var stats reasoner.Stats
				r := reasoner.Counting{R: tableauFactory(tb), S: &stats}
				res := classify(t, tb, Options{
					Reasoner: r, Workers: w, Seed: seed,
					Scheduling: sched, ELPrepass: true,
				})
				got := res.Taxonomy.Render()
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("seed %d sched=%v w=%d: taxonomy differs from reference", seed, sched, w)
				}
				if got := stats.SatCalls.Load(); got != wantSat {
					t.Errorf("seed %d sched=%v w=%d: plug-in sat? calls = %d, want %d (one per concept not proven unsatisfiable)",
						seed, sched, w, got, wantSat)
				}
				if stats.SubsCalls.Load() == 0 {
					t.Errorf("seed %d sched=%v w=%d: no subs? call left after seeding", seed, sched, w)
				}
			}
		}
	}
}

// TestWorkStealingActuallySteals pins that Async's steal loop is live on
// a real classification: a multi-worker run over a corpus with enough
// tasks records at least one steal (an always-zero counter would mean the
// stealing path is dead code and the policy silently degenerated to
// round-robin).
func TestWorkStealingActuallySteals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := randomTaxonomyTBox(rng, 60)
	res := classify(t, tb, Options{
		Reasoner: tableauFactory(tb), Workers: 4,
		Scheduling: Async, CollectTrace: true, RandomCycles: 2,
	})
	if res.Stats.Steals == 0 {
		t.Error("Stats.Steals = 0 on a 4-worker async run; stealing never fired")
	}
	if got := res.Trace.TotalSteals(); got != res.Stats.Steals {
		t.Errorf("Trace.TotalSteals() = %d, Stats.Steals = %d; counters disagree", got, res.Stats.Steals)
	}
	// Every pool task must have an executing-worker record in range.
	for _, c := range res.Trace.Cycles {
		if len(c.TaskWorkers) != len(c.Tasks) {
			t.Fatalf("cycle %s/%d: %d worker records for %d tasks", c.Phase, c.Index, len(c.TaskWorkers), len(c.Tasks))
		}
		for i, w := range c.TaskWorkers {
			if w < -1 || w >= res.Trace.Workers {
				t.Fatalf("cycle %s/%d task %d: worker %d out of range", c.Phase, c.Index, i, w)
			}
		}
	}
}

// TestSchedulingValidation covers both policies in Options.Validate and
// the flag parser round-trip; the retired policy names must be refused.
func TestSchedulingValidation(t *testing.T) {
	o := Options{Reasoner: reasoner.NewOracle(exampleTBox(), reasoner.OracleOptions{}), Scheduling: Async}
	if err := o.Validate(); err != nil {
		t.Fatalf("Validate rejected Async: %v", err)
	}
	o.Scheduling = Scheduling(99)
	if err := o.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown policy")
	}
	for _, sched := range allSchedulings {
		got, err := ParseScheduling(sched.String())
		if err != nil || got != sched {
			t.Fatalf("ParseScheduling(%q) = %v, %v", sched.String(), got, err)
		}
	}
	for _, name := range []string{"lifo", "worksharing", "workstealing"} {
		if _, err := ParseScheduling(name); err == nil {
			t.Fatalf("ParseScheduling accepted %q", name)
		}
	}
}

// TestKillAndResumeAsync proves checkpoints taken under the barrier-free
// driver restore correctly: its snapshots are cut at quiescence epochs
// rather than batch barriers, the barrier asserts every deque drained so
// a snapshot can never capture a stolen-but-unfinished task, and runs
// crashed at arbitrary points and resumed must converge to the taxonomy
// of an uninterrupted round-robin run.
func TestKillAndResumeAsync(t *testing.T) {
	seeds := []int64{21, 22, 23}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		tb := randomMixedTBox(rng, 8+rng.Intn(10))
		workers := 2 + rng.Intn(7)
		opts := Options{
			Workers: workers, Mode: Optimized, Seed: seed,
			Scheduling: Async, ELPrepass: rng.Intn(2) == 0,
		}
		refOpts := opts
		refOpts.Scheduling = RoundRobin
		ref := classify(t, tb, refOpts)
		totalCalls := ref.Stats.SatTests + ref.Stats.SubsTests
		path := ckPath(t)

		var final *Result
		var lastEpoch int64
		for attempt := 0; ; attempt++ {
			if attempt > 50 {
				t.Fatalf("seed %d: no run survived after %d crashes", seed, attempt)
			}
			var left atomic.Int64
			left.Store(rng.Int63n(totalCalls + 1))
			o := opts
			o.Reasoner = countdownReasoner{Interface: tableauFactory(tb), left: &left}
			o.Checkpoint = path
			if _, err := os.Stat(path); err == nil {
				o.ResumeFrom = path
			}
			res, err := Classify(tb, o)
			if snap, serr := readSnapshotFile(path); serr == nil {
				// Epochs must stay monotonic across crashes and resumes:
				// every snapshot carries the quiescence count it was cut at,
				// seeded from the snapshot it restored.
				if snap.epoch < lastEpoch {
					t.Fatalf("seed %d attempt %d: snapshot epoch went backwards (%d < %d)",
						seed, attempt, snap.epoch, lastEpoch)
				}
				lastEpoch = snap.epoch
			}
			if err != nil {
				if !errors.Is(err, reasoner.ErrInjected) {
					t.Fatalf("seed %d attempt %d: unexpected failure: %v", seed, attempt, err)
				}
				continue
			}
			if res.ResumeError != nil {
				t.Fatalf("seed %d attempt %d: snapshot rejected: %v", seed, attempt, res.ResumeError)
			}
			final = res
			break
		}
		if lastEpoch == 0 {
			t.Errorf("seed %d: no snapshot recorded a nonzero epoch", seed)
		}
		if got, want := final.Taxonomy.Render(), ref.Taxonomy.Render(); got != want {
			t.Errorf("seed %d (workers %d): resumed async taxonomy differs from round-robin reference:\n got:\n%s\nwant:\n%s",
				seed, workers, got, want)
		}
		if len(final.Undecided) != 0 {
			t.Errorf("seed %d: undecided after resume: %v", seed, final.Undecided)
		}
	}
}

// TestAsyncQuiescesLessThanBarrierMode pins the policy's point: with
// checkpointing off, an async run closes far fewer epochs (quiescence
// rendezvous) than a barrier-mode run of the same corpus, which pays one
// per cycle.
func TestAsyncQuiescesLessThanBarrierMode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := randomTaxonomyTBox(rng, 60)
	path := ckPath(t)
	// CheckpointInterval is left at an hour so only the forced phase-final
	// snapshot is written; its epoch field records the total quiescence
	// count of the run.
	epochs := func(sched Scheduling) int64 {
		t.Helper()
		o := Options{
			Reasoner: tableauFactory(tb), Workers: 4, Seed: 7,
			Scheduling: sched, RandomCycles: 4,
			Checkpoint: path, CheckpointInterval: time.Hour,
		}
		classify(t, tb, o)
		snap, err := readSnapshotFile(path)
		if err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		return snap.epoch
	}
	async := epochs(Async)
	barrier := epochs(RoundRobin)
	if async >= barrier {
		t.Errorf("async run closed %d epochs, barrier run %d; async should quiesce less", async, barrier)
	}
}
