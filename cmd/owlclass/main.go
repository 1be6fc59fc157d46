// Command owlclass classifies an OWL ontology in parallel and prints its
// taxonomy, statistics, or per-cycle trace.
//
//	owlclass [flags] ontology.(obo|ofn|owl)
//	owlclass -profile EMAP#EMAP -workers 8 -stats
//
// With -profile, a synthetic corpus from the paper's Tables IV/V is
// generated instead of reading a file. The cheap-first pipeline (-prepass,
// -modelfilter) is on by default; -prepass=false -modelfilter=false runs
// the paper's plain algorithm. The command is a thin front end
// over the parowl Engine/Ontology handles — the same object surface the
// owld daemon serves over HTTP.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"parowl"
)

var (
	workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	cycles  = flag.Int("cycles", 2, "random-division cycles")
	seed    = flag.Int64("seed", 1, "shuffle / generation seed")
	mode    = flag.String("mode", "optimized", "optimized | basic")
	sched   = flag.String("sched", "roundrobin", "roundrobin | async")
	plugin  = flag.String("reasoner", "auto", "auto | tableau | el")
	profile = flag.String("profile", "", "generate this Table IV/V profile instead of reading a file")
	scale   = flag.Int("scale", 1, "shrink the generated profile by this factor")
	stats   = flag.Bool("stats", false, "print test statistics instead of the taxonomy")
	trace   = flag.Bool("trace", false, "print the per-cycle trace")
	loads   = flag.Bool("loads", false, "print the per-worker load and steal-count summary (paper Sec. V-C)")
	dot     = flag.Bool("dot", false, "print the taxonomy in Graphviz DOT format")
	summary = flag.Bool("summary", false, "print a one-line taxonomy summary")
	prepass = flag.Bool("prepass", true, "EL pre-saturation: seed known subsumptions from the EL fragment before testing; -prepass=false -modelfilter=false runs the paper's plain algorithm")
	mfilter = flag.Bool("modelfilter", true, "build the plug-in's model-filter rows, cheap non-subsumption proofs, and consult them before each subs? dispatch")
	timeout = flag.Duration("timeout", 0, "abort classification after this duration (0 = none)")

	testTimeout = flag.Duration("test-timeout", 0, "budget per sat?/subs? test; expired tests are retried then recorded as undecided (0 = none)")
	testRetries = flag.Int("test-retries", 0, "escalating retries per timed-out test (each doubles the budget)")

	query = flag.String("query", "", "answer taxonomy queries from the compiled kernel, e.g. 'subsumes:A,B;ancestors:C;lca:A,B' (ops: subsumes, ancestors, descendants, equivalents, lca, depth)")

	checkpoint         = flag.String("checkpoint", "", "periodically snapshot classification state to this file (atomic rename)")
	checkpointInterval = flag.Duration("checkpoint-interval", time.Second, "minimum time between checkpoint snapshots (0 = every phase boundary)")
	resume             = flag.String("resume", "", "restore classification state from this checkpoint file; an invalid snapshot falls back to a clean run")
	chaos              = flag.String("chaos", "", "inject reasoner faults, e.g. err=0.01,panic=0.005,hang=0.002,budget=0.01,slow=2ms,seed=7 (testing only)")
	moduleOf           = flag.String("module", "", "extract the ⊥-locality module for this comma-separated concept list before classifying")
	metrics            = flag.Bool("metrics", false, "print the ontology metrics row and exit")
	baseline           = flag.String("baseline", "", "also run a baseline and compare: brute | traversal")

	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
)

func main() {
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "owlclass:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "owlclass:", err)
			os.Exit(1)
		}
	}
	err := run()
	if *cpuprofile != "" {
		pprof.StopCPUProfile() // before any os.Exit, which skips defers
	}
	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr == nil {
			runtime.GC() // flush allocation stats so the profile is current
			merr = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if merr != nil {
			fmt.Fprintln(os.Stderr, "owlclass: memprofile:", merr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "owlclass:", err)
		os.Exit(1)
	}
}

func run() error {
	eng := parowl.NewEngine()
	ont, err := load(eng)
	if err != nil {
		return err
	}
	if *moduleOf != "" {
		full := ont.TBox()
		ont, err = ont.ExtractModule(strings.Split(*moduleOf, ","))
		if err != nil {
			return err
		}
		m := ont.TBox()
		fmt.Fprintf(os.Stderr, "module: %d of %d concepts, %d of %d axioms\n",
			m.NumNamed(), full.NumNamed(), len(m.Axioms()), len(full.Axioms()))
	}
	tbox := ont.TBox()
	if *metrics {
		fmt.Println(ont.Metrics())
		return nil
	}
	opts := parowl.Options{
		Workers:            *workers,
		RandomCycles:       *cycles,
		Seed:               *seed,
		CollectTrace:       *trace || *loads,
		ELPrepass:          *prepass,
		ModelFilter:        *mfilter,
		TestTimeout:        *testTimeout,
		TestRetries:        *testRetries,
		Checkpoint:         *checkpoint,
		CheckpointInterval: *checkpointInterval,
		ResumeFrom:         *resume,
		CompileKernel:      *query != "", // -query answers from the kernel
	}
	switch *mode {
	case "optimized":
		opts.Mode = parowl.ModeOptimized
	case "basic":
		opts.Mode = parowl.ModeBasic
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	opts.Scheduling, err = parowl.ParseScheduling(*sched)
	if err != nil {
		return err
	}
	switch *plugin {
	case "auto": // nil: ClassifyWith falls back to the Engine's selection
	case "tableau":
		opts.Reasoner = parowl.NewTableauReasoner(tbox)
	case "el":
		r, err := parowl.NewELReasoner(tbox)
		if err != nil {
			return err
		}
		opts.Reasoner = r
	default:
		return fmt.Errorf("unknown -reasoner %q", *plugin)
	}
	if *chaos != "" {
		copts, err := parowl.ParseChaos(*chaos)
		if err != nil {
			return err
		}
		if opts.Reasoner == nil {
			opts.Reasoner = parowl.NewAutoReasoner(tbox)
		}
		fmt.Fprintf(os.Stderr, "owlclass: WARNING: chaos fault injection active (%s)\n", *chaos)
		opts.Reasoner = parowl.NewChaosReasoner(opts.Reasoner, copts)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := ont.ClassifyWith(ctx, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if res.Resumed {
		fmt.Fprintf(os.Stderr, "owlclass: resumed from checkpoint %s\n", *resume)
	}
	if res.ResumeError != nil {
		fmt.Fprintf(os.Stderr, "owlclass: WARNING: checkpoint not resumable, classified from scratch: %v\n", res.ResumeError)
	}
	if res.CheckpointError != nil {
		fmt.Fprintf(os.Stderr, "owlclass: WARNING: checkpoint writes failed: %v\n", res.CheckpointError)
	}
	if n := len(res.Undecided); n > 0 {
		fmt.Fprintf(os.Stderr, "owlclass: WARNING: %d test(s) undecided (budget %v, %d retries); "+
			"the taxonomy is sound but may be missing subsumptions\n", n, *testTimeout, *testRetries)
		for _, w := range []struct {
			n      int64
			format string
		}{
			{res.Stats.TimedOut, "%d test(s) exceeded the per-test time budget"},
			{res.Stats.NodeBudget, "%d test(s) exhausted the reasoner's node budget"},
			{res.Stats.BranchBudget, "%d test(s) exhausted the reasoner's branch budget"},
			{res.Stats.Recovered, "%d reasoner panic(s) recovered"},
		} {
			if w.n > 0 {
				fmt.Fprintf(os.Stderr, "owlclass: WARNING: "+w.format+"\n", w.n)
			}
		}
		for _, u := range res.Undecided {
			fmt.Fprintf(os.Stderr, "  undecided: %v\n", u)
		}
	}

	if *baseline != "" {
		var want *parowl.Taxonomy
		switch *baseline {
		case "brute":
			want, err = ont.ClassifySequential(ctx, opts.Reasoner)
		case "traversal":
			want, err = ont.ClassifyEnhancedTraversal(ctx, opts.Reasoner)
		default:
			err = fmt.Errorf("unknown -baseline %q", *baseline)
		}
		if err != nil {
			return err
		}
		if res.Taxonomy.Equal(want) {
			fmt.Fprintf(os.Stderr, "baseline %s: taxonomies identical\n", *baseline)
		} else {
			return fmt.Errorf("baseline %s: taxonomies differ", *baseline)
		}
	}

	switch {
	case *query != "":
		snap, serr := ont.Snapshot()
		if serr != nil {
			return serr
		}
		lines, qerr := snap.EvalSpec(ctx, *query)
		if qerr != nil {
			return qerr
		}
		for _, line := range lines {
			fmt.Println(line)
		}
	case *trace:
		fmt.Print(res.Trace.String())
	case *dot:
		fmt.Print(res.Taxonomy.DOT())
	case *summary:
		fmt.Println(res.Taxonomy.Summarize())
	case *stats:
		fmt.Printf("ontology:    %s (%d concepts)\n", tbox.Name, tbox.NumNamed())
		fmt.Printf("elapsed:     %v\n", elapsed)
		fmt.Printf("classes:     %d taxonomy nodes\n", res.Taxonomy.NumClasses())
		// One row per counter; a row marked always prints even at zero.
		st := res.Stats
		for _, row := range []struct {
			n      int64
			always bool
			format string
		}{
			{st.SubsTests, true, "subs tests:  %d"},
			{st.SatTests, true, "sat tests:   %d"},
			{st.Pruned, true, "pruned:      %d pairs resolved without testing"},
			{st.PreSeeded, false, "preseeded:   %d tests resolved by the EL prepass"},
			{st.FilterHits, false, "filter hits: %d subs? dispatches skipped by the plug-in's model filter"},
			{st.TimedOut, false, "timed out:   %d tests abandoned after exhausting their budget"},
			{st.NodeBudget, false, "node budget: %d tests abandoned on reasoner node-budget exhaustion"},
			{st.BranchBudget, false, "branch budget: %d tests abandoned on reasoner branch-budget exhaustion"},
			{st.Recovered, false, "recovered:   %d plug-in panics converted to undecided tests"},
			{st.Steals, false, "steals:      %d tasks ran on a different worker than queued"},
			{int64(len(res.Undecided)), false, "undecided:   %d tests (taxonomy sound but possibly incomplete)"},
		} {
			if row.always || row.n > 0 {
				fmt.Printf(row.format+"\n", row.n)
			}
		}
	default:
		if !*loads {
			fmt.Print(res.Taxonomy.Render())
		}
	}
	if *loads {
		fmt.Printf("scheduling: %v, workers: %d, elapsed: %v\n", opts.Scheduling, res.Trace.Workers, elapsed)
		fmt.Print(res.Trace.LoadSummary())
	}
	return nil
}

// load builds the Ontology handle from -profile or the file argument.
func load(eng *parowl.Engine) (*parowl.Ontology, error) {
	if *profile != "" {
		p, ok := parowl.ProfileByName(*profile)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q (see cmd/benchfig for the 14 names)", *profile)
		}
		if *scale > 1 {
			p = parowl.MiniProfile(p, *scale)
		}
		return eng.Generate(p, *seed)
	}
	if flag.NArg() != 1 {
		return nil, fmt.Errorf("usage: owlclass [flags] ontology.(obo|ofn|owl) — or -profile NAME")
	}
	return eng.LoadFile(flag.Arg(0))
}
