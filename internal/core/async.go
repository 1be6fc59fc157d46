package core

import "math/rand"

// Barrier-free asynchronous classification (Scheduling == Async).
//
// RoundRobin rendezvouses after every cycle: the coordinator submits a
// batch, waits for the last straggler, then computes the next batch.
// Workers that finish early park until the whole pool drains — that
// parked time is the straggler tail BENCH_sched measures as wait and
// imbalance. The async driver removes those rendezvous, and its workers
// run the pool's steal loop: each drains a Chase–Lev deque fed
// round-robin in hardness order (LPT, from per-concept cost EWMAs) and
// steals from random victims before parking.
//
//   - Phase 1 (random division): a cycle's shuffle depends only on the
//     rng, never on test results, so cycles are pipelined: the next
//     cycle is queued once all but one of the current cycle's groups
//     have finished (pool.waitLow), so workers flow straight into it
//     while stragglers keep running — nobody parks waiting for them —
//     and the next cycle's tests still see almost every prune fact.
//   - Phase 2 (group division): the driver cuts tasks from the LIVE P
//     sets and re-cuts as soon as the backlog drops below a watermark
//     instead of waiting for the last straggler. A re-cut is thinned by
//     every prune that landed since the previous one, and rows whose
//     task is still running get a duplicate task over their unclaimed
//     remainder — idle workers split a straggler's row at pair
//     granularity instead of parking behind it.
//
// Sharing stale state is safe for exactly one reason, and it is the same
// reason shared P/K work under every policy: reads of K are only ever
// used to PRUNE (drop a pair from P without a test — sound because K
// facts are entailed, however old), while SETTLING a pair is always
// guarded by an atomic claim (the clear of its P bit, in either mode),
// so a pair's verdict is computed exactly once no matter how many waves
// cover it. A worker acting on a stale P snapshot merely attempts a claim that
// fails. Freshness changes which tests never happen; it cannot change
// any test's outcome — which is why the taxonomy stays byte-identical to
// RoundRobin's.
//
// Quiescence and epochs: the pool counts submitted-but-unfinished tasks
// (pool.pending). Full quiescence — pending == 0, every claimed pair's
// outcome recorded in K or undecided — is required only at phase edges
// and when a checkpoint is due; each such point closes an epoch
// (pool.epoch) and is the only place snapshots are cut, so async
// snapshots are exactly as consistent as RoundRobin's barrier ones. With
// checkpointing off the run quiesces just three times: after the
// prepass, between phases 1 and 2, and before the hierarchy build.
//
// Closing an epoch is also where async claws back the tests streaming
// costs it: the coordinator runs prunePass, re-applying Situation 2.3
// pruning over the epoch's FULL K. The workers' own pruneAfter calls are
// one-shot — a subsumee fact landing after its superchain's test misses
// its prune forever, under either policy — so the sweep prunes pairs
// RoundRobin goes on to test with the reasoner.

// runAsync drives phases 1 and 2 barrier-free. On return the pool is
// quiescent and, on a non-failed run, P is empty.
func (s *state) runAsync(p *pool, rng *rand.Rand, workers, cycles int, ck *checkpointer, trace *Trace, skipRandom bool) {
	epoch := func() int64 { return s.epochBase + p.epoch.Load() }

	if !skipRandom {
		for cycle := 1; cycle <= cycles && !s.failed(); cycle++ {
			s.submitRandomCycle(p, rng, workers)
			// Quiesce only when something needs the rendezvous: the last
			// cycle (phase edge) or a due checkpoint. Otherwise the next
			// cycle's groups are already queued behind this one's.
			if cycle == cycles || ck.due() {
				c := p.barrier()
				s.prunePass() // quiescent: harvest the epoch's late K facts
				s.record(trace, PhaseRandom, cycle, c)
				ck.write(s, PhaseRandom, epoch())
			} else {
				// Pipeline, don't rendezvous: queue the next shuffle once
				// half the pool has gone idle. Stragglers keep running
				// (nobody waits for them — the barrier's whole cost), while
				// the next cycle's tests still see most groups' prune
				// facts. A lower watermark buys fresher pruning at the
				// price of parking the early finishers behind the
				// straggler tail; a higher one streams harder but re-tests
				// pairs the stragglers were about to prune — the epoch
				// prune sweeps claw those back.
				low := int64(workers / 2)
				if low < 1 {
					low = 1
				}
				p.waitLow(low)
			}
		}
		if pend := p.pendingTasks(); pend != 0 {
			// Unreachable: the last cycle always quiesced above. Keep the
			// invariant loud — cutting phase 2 with random tasks in flight
			// would blur the checkpoint phase tag.
			p.barrier()
		}
	}

	// Quiescent here whether phase 1 ran or a resume skipped it: sweep
	// once so the first group cut is as thin as the full K allows.
	s.prunePass()
	iter := 0
	for !s.failed() {
		tasks := s.cutGroupTasks()
		if len(tasks) == 0 {
			if p.pendingTasks() == 0 {
				break // P empty and every outcome recorded: phase 2 done
			}
			// P is drained but stragglers still hold claimed pairs whose
			// K facts may re-expose nothing; wait for them to finish and
			// re-check (a claimed pair never returns to P, so this
			// converges).
			p.waitLow(0)
			s.prunePass()
			continue
		}
		iter++
		s.lptGroupTasks(tasks)
		for _, t := range tasks {
			s.submitGroupTask(p, t)
		}
		// Re-cut when most of the pool has gone idle — or, for a small
		// tail wave, when half of it has completed — instead of waiting
		// for the last straggler. The re-cut's duplicate tasks for
		// still-running rows split those rows' unclaimed pairs across idle
		// workers (claims are atomic), so stragglers get rescued at pair
		// granularity rather than parked behind.
		low := int64(len(tasks) / 2)
		if hw := int64(workers / 2); low > hw {
			low = hw
		}
		p.waitLow(low)
		if ck.due() {
			c := p.barrier()
			s.prunePass() // quiescent: harvest the epoch's late K facts
			s.record(trace, PhaseGroup, iter, c)
			ck.write(s, PhaseGroup, epoch())
		}
	}
	// Final quiescence of phase 2: collect whatever ran since the last
	// epoch into one trace record.
	if c := p.barrier(); len(c.Tasks) > 0 {
		s.record(trace, PhaseGroup, iter, c)
	}
}
