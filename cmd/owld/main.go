// Command owld is the classification-as-a-service daemon: a long-lived
// HTTP server holding an ontology registry with warm classified state.
// Clients submit ontology documents, classification runs asynchronously
// through a bounded admission queue, and taxonomy queries are answered
// from the compiled bit-matrix kernel — concurrently with in-flight
// classification, and from the previous generation during a
// reclassification.
//
//	owld -addr :8080 -checkpoint-dir /var/lib/owld
//
//	curl -d @anatomy.obo 'localhost:8080/ontologies?id=anatomy&format=obo'
//	curl 'localhost:8080/ontologies/anatomy'
//	curl 'localhost:8080/ontologies/anatomy/query?q=ancestors:A;subsumes:A,B'
//
// SIGTERM/SIGINT drain gracefully: in-flight classification jobs get
// -drain-grace to finish, are then cancelled, and their phase-boundary
// checkpoints (under -checkpoint-dir) make a resubmission after restart
// resume instead of restarting from scratch.
//
// With -checkpoint-dir the registry itself is durable: a versioned,
// checksummed registry.json manifest records every entry, and a restart
// (graceful or SIGKILL) re-adopts classified ontologies from their
// checkpoints with zero reclassification — /readyz reports 503 until
// re-adoption finishes. -max-resident-bytes bounds warm memory: cold
// classified entries are evicted to disk and transparently reloaded on
// their next query (the first such query pays the checkpoint decode and
// a kernel compile).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parowl"
	"parowl/internal/server"
)

var (
	addr               = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	checkpointDir      = flag.String("checkpoint-dir", "", "directory for per-ontology classification checkpoints (empty = no checkpointing)")
	checkpointInterval = flag.Duration("checkpoint-interval", time.Second, "minimum time between checkpoint snapshots (0 = every phase boundary)")
	queueDepth         = flag.Int("queue", 16, "classify admission queue depth; submissions beyond it get 429")
	jobs               = flag.Int("jobs", 2, "concurrent classification jobs")
	classifyTimeout    = flag.Duration("classify-timeout", 0, "wall-time cap per classification job (0 = none)")
	requestTimeout     = flag.Duration("request-timeout", 30*time.Second, "default deadline per query request")
	drainGrace         = flag.Duration("drain-grace", 5*time.Second, "how long a drain lets in-flight jobs finish before cancelling them")
	maxResidentBytes   = flag.Int64("max-resident-bytes", 0, "memory budget for warm classified state; LRU entries beyond it are evicted to their checkpoints and reloaded on demand (0 = unlimited; requires -checkpoint-dir)")
	retryBudget        = flag.Int("retry", 2, "automatic retries for transiently-failed classify jobs (chaos faults, job timeouts), with exponential backoff (0 = none)")
	retryBase          = flag.Duration("retry-base", 500*time.Millisecond, "first retry backoff delay; doubles per attempt")
	retryMax           = flag.Duration("retry-max", 30*time.Second, "backoff cap for classify retries")

	workers = flag.Int("workers", 0, "classification worker pool size (0 = GOMAXPROCS)")
	cycles  = flag.Int("cycles", 2, "random-division cycles")
	sched   = flag.String("sched", "roundrobin", "default scheduling policy: roundrobin | async (per-submit ?sched= overrides)")
	plugin  = flag.String("reasoner", "auto", "auto | tableau | el")
	chaos   = flag.String("chaos", "", "inject reasoner faults, e.g. slow=1ms,seed=7 (testing only)")

	readyFile = flag.String("ready-file", "", "write the server's base URL to this file once listening (for scripts)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "owld:", err)
		os.Exit(1)
	}
}

func run() error {
	switch *plugin {
	case "auto", "tableau", "el":
	default:
		return fmt.Errorf("unknown -reasoner %q", *plugin)
	}
	var chaosOpts *parowl.ChaosOptions
	if *chaos != "" {
		co, err := parowl.ParseChaos(*chaos)
		if err != nil {
			return err
		}
		chaosOpts = &co
		log.Printf("owld: WARNING: chaos fault injection active (%s)", *chaos)
	}
	scheduling, err := parowl.ParseScheduling(*sched)
	if err != nil {
		return err
	}

	// The template leaves the cheap-first pipeline off: serve_chaos.sh
	// proves that a restart reclassifies nothing by restarting under a
	// reasoner that fails every call, and a prepass that decides an EL
	// corpus without calling the plug-in would make that proof vacuous.
	eng := parowl.NewEngine(
		parowl.WithOptions(parowl.Options{
			Workers:      *workers,
			RandomCycles: *cycles,
			Scheduling:   scheduling,
		}),
		parowl.WithReasoner(func(tb *parowl.TBox) parowl.Reasoner {
			var r parowl.Reasoner
			switch *plugin {
			case "tableau":
				r = parowl.NewTableauReasoner(tb)
			case "el":
				el, err := parowl.NewELReasoner(tb)
				if err != nil {
					log.Printf("owld: %s outside the EL fragment, using auto selection: %v", tb.Name, err)
					r = parowl.NewAutoReasoner(tb)
				} else {
					r = el
				}
			default:
				r = parowl.NewAutoReasoner(tb)
			}
			if chaosOpts != nil {
				r = parowl.NewChaosReasoner(r, *chaosOpts)
			}
			return r
		}),
	)

	srv, err := server.New(server.Config{
		Engine:             eng,
		CheckpointDir:      *checkpointDir,
		CheckpointInterval: *checkpointInterval,
		QueueDepth:         *queueDepth,
		ClassifyJobs:       *jobs,
		ClassifyTimeout:    *classifyTimeout,
		RequestTimeout:     *requestTimeout,
		DrainGrace:         *drainGrace,
		MaxResidentBytes:   *maxResidentBytes,
		RetryBudget:        *retryBudget,
		RetryBaseDelay:     *retryBase,
		RetryMaxDelay:      *retryMax,
		Logf:               log.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("owld: listening on %s", ln.Addr())
	if *readyFile != "" {
		url := "http://" + ln.Addr().String()
		if err := os.WriteFile(*readyFile, []byte(url+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("ready file: %w", err)
		}
	}

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-serveErr:
		return err
	case got := <-sig:
		log.Printf("owld: %v: draining (grace %v)", got, *drainGrace)
		ctx, cancel := context.WithTimeout(context.Background(), *drainGrace+30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("owld: drain: %v", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		log.Printf("owld: drained; checkpoints for interrupted jobs remain resumable")
		return nil
	}
}
