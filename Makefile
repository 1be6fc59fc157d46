GO ?= go

.PHONY: build test verify chaos serve-smoke serve-chaos bench bench-classify bench-sched bench-query

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pre-merge gate: build + vet + all tests + race detector on the
# concurrency-critical packages. See scripts/verify.sh.
verify:
	sh scripts/verify.sh

# The crash-safety torture loop: fault-injection and kill-and-resume
# suites under -race, plus subprocess SIGKILL of the real owlclass
# binary. See scripts/chaos.sh.
chaos:
	sh scripts/chaos.sh

# End-to-end smoke test of the owld daemon: classify generated corpora
# over HTTP and assert query answers and taxonomy output are
# byte-identical to owlclass on the same files. See
# scripts/serve_smoke.sh.
serve-smoke:
	sh scripts/serve_smoke.sh

# Durable-registry torture drill: SIGKILL the daemon, restart it under a
# fail-everything chaos reasoner (proving re-adoption reclassifies
# nothing), then restart under a tight memory budget and check evicted
# entries demand-reload byte-identical answers. See
# scripts/serve_chaos.sh.
serve-chaos:
	sh scripts/serve_chaos.sh

bench:
	$(GO) test -bench . -benchmem -run xxx ./...

# End-to-end classification benchmark (real tableau reasoning, cheap-first
# pipeline off vs on), written to BENCH_classify.json; compares against
# the previous run via benchstat when available.
bench-classify:
	sh scripts/bench_classify.sh

# Scheduler benchmark (round-robin vs async at 2, 4 and 8 workers on a
# skewed corpus, real per-test durations: wall clock, plug-in tests,
# per-worker wait, imbalance, steals), written to BENCH_sched.json. Uses
# the same scripts/corpus.sh ontology as `make chaos`; compares against
# the previous run via benchstat when available.
bench-sched:
	sh scripts/bench_sched.sh

# Taxonomy query benchmark (bit-matrix kernel vs pointer-DAG lookups on
# full-size corpora, answers verified identical), written to
# BENCH_query.json; compares against the previous run via benchstat when
# available.
bench-query:
	sh scripts/bench_query.sh
