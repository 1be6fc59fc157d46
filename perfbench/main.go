// Command perfbench is the repository benchmark: it runs one workload
// against parowl as shipped and prints its end-to-end metrics (or, with
// -trace 1, its per-layer metrics) as a JSON line. See METRICS.md for
// what each workload and metric measures and why.
//
//	perfbench -workload classify-el -seed 1 -seconds 20 -trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric. The names and units here are the
// ones BENCHMARK.json lists.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"classify_s", "s"},
	{"classify_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"query_max_rps", "req/s"},
	{"reload_query_ms", "ms"},
	{"restart_ready_s", "s"},
}

var perLayer = []metricDef{
	{"parse.s", "s"}, {"parse.mb_per_s", "MB/s"},
	{"el.saturate_s", "s"},
	{"plugin.sat_calls", "count"}, {"plugin.subs_calls", "count"}, {"plugin.busy_s", "s"},
	{"plugin.subs_p50_us", "us"}, {"plugin.subs_p99_us", "us"}, {"plugin.subs_max_ms", "ms"},
	{"plugin.true_frac", "ratio"},
	{"core.pruned", "count"}, {"core.prune_frac", "ratio"}, {"core.preseeded", "count"},
	{"core.filter_hits", "count"}, {"core.self_s", "s"}, {"core.wait_s", "s"},
	{"core.imbalance", "ratio"}, {"core.speedup", "ratio"}, {"core.random_s", "s"},
	{"core.group_s", "s"}, {"core.hierarchy_s", "s"},
	{"baseline.seq_s", "s"},
	{"taxonomy.kernel_compile_s", "s"}, {"taxonomy.kernel_mb", "MB"}, {"taxonomy.dag_mb", "MB"},
	{"taxonomy.subsumes_ns", "ns"}, {"taxonomy.ancestors_us", "us"}, {"taxonomy.lca_us", "us"},
	{"taxonomy.depth_ns", "ns"},
	{"checkpoint.mb", "MB"}, {"checkpoint.adopt_s", "s"},
	{"server.svc_p50_ms", "ms"}, {"server.svc_p99_ms", "ms"}, {"server.overhead_us", "us"},
	{"server.queue_wait_s", "s"}, {"server.job_s", "s"},
	{"server.evictions", "count"}, {"server.reloads", "count"}, {"server.reload_frac", "ratio"},
	{"server.coalesced", "count"}, {"server.resident_mb", "MB"},
	{"driver.late_p50_ms", "ms"}, {"driver.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Traced   bool
	WorkDir  string // scratch space inside the checkout
}

// reportOnly are end-to-end metrics printed with every untraced run but
// not in the JSON result: on a shared 2-vCPU host their run-to-run
// spread is wider than any bound BENCHMARK.json may set (see METRICS.md).
var reportOnly = []metricDef{
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"churn_query_p99_ms", "ms"},
}

// result is what a workload reports.
type result struct {
	Attempted, Failed int
	Metrics           map[string]float64
	Samples           map[string]int // sample counts behind timing metrics
	Report            []string       // human-readable lines (extra names, tails)
	Corpora           []built
	tr                *tracer
}

func newResult() *result {
	return &result{Metrics: map[string]float64{}, Samples: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.Metrics[name] = v
	if n > 0 {
		r.Samples[name] = n
	}
}

func (r *result) note(format string, args ...any) {
	r.Report = append(r.Report, fmt.Sprintf(format, args...))
}

// outcome counts one checked operation; a non-nil err is a failure.
func (r *result) outcome(err error) {
	r.Attempted++
	if err != nil {
		if r.Failed < 5 {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		}
		r.Failed++
	}
}

var workloads = map[string]func(context.Context, config) (*result, error){
	"classify-el":  func(ctx context.Context, c config) (*result, error) { return runClassify(ctx, c, classifyEL) },
	"classify-qcr": func(ctx context.Context, c config) (*result, error) { return runClassify(ctx, c, classifyQCR) },
	"serve":        runServe,
}

func main() {
	var c config
	var secs, traced int
	flag.StringVar(&c.Workload, "workload", "", "classify-el | classify-qcr | serve")
	flag.Int64Var(&c.Seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&secs, "seconds", 20, "how long the measured phase runs")
	flag.IntVar(&traced, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()
	c.Seconds, c.Traced = time.Duration(secs)*time.Second, traced == 1
	run, ok := workloads[c.Workload]
	if !ok || secs < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q or bad -seconds\n", c.Workload)
		os.Exit(2)
	}
	out := os.Getenv("CARGO_TARGET_DIR") // where run.sh puts the build
	if out == "" {
		out = ".bench_build"
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(out, "work-")
	if err != nil {
		fail(err)
	}
	c.WorkDir = dir
	res, err := run(context.Background(), c)
	os.RemoveAll(dir)
	if err != nil {
		fail(err)
	}
	if c.Traced {
		path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.json", c.Workload, c.Seed))
		if err := res.tr.write(path); err != nil {
			fail(err)
		}
		res.note("spans written to %s", path)
	}
	printResult(c, res)
	if res.Failed > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printResult writes the human-readable report and then, as the last
// line, the JSON result.
func printResult(c config, res *result) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# %s\n", provenance(c, res))
	defs := endToEnd
	if c.Traced {
		defs = perLayer
	}
	out := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) {
			v = 0 // a layer this workload does not run
		}
		if math.IsInf(v, 0) {
			v = math.MaxFloat32
		}
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		n := ""
		if s := res.Samples[d.Name]; s > 0 {
			n = fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Fprintf(w, "%-26s %14.6g %-6s%s\n", d.Name, v, d.Unit, n)
	}
	if !c.Traced {
		for _, d := range reportOnly {
			if v, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "%-26s %14.6g %-6s  (n=%d, report only)\n", d.Name, v, d.Unit, res.Samples[d.Name])
			}
		}
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-26s %14.6g %-6s  (%d of %d)\n", "failed_frac", frac, "ratio", res.Failed, res.Attempted)
	for _, l := range res.Report {
		fmt.Fprintf(w, "# %s\n", l)
	}
	b, _ := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": max(res.Attempted, 1),
		"failed":    res.Failed,
		"metrics":   out,
	})
	w.Write(append(b, '\n'))
}

// provenance describes the host, the seed and the corpora of this run.
func provenance(c config, res *result) string {
	var parts []string
	for _, b := range res.Corpora {
		parts = append(parts, fmt.Sprintf("%s=%s/%d,%s,%dB,%dconcepts", b.ID, b.Profile, b.Scale, b.Format, len(b.Src), b.Concepts))
	}
	sort.Strings(parts)
	return fmt.Sprintf("workload=%s seed=%d corpus_seed=%d seconds=%v traced=%v nproc=%d gomaxprocs=%d go=%s cpu=%q corpora=[%s]",
		c.Workload, c.Seed, corpusSeed, c.Seconds.Seconds(), c.Traced, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), cpuModel(), strings.Join(parts, " "))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// noteTail reports a timing sample (ms) as its median and the highest
// percentile with at least minBeyond samples beyond it.
func noteTail(res *result, what string, ms []float64) {
	d := summarize(ms)
	if d.TailP == 0 {
		res.note("%s: median %.4g ms (n=%d; too few samples for a tail)", what, d.Median, d.N)
		return
	}
	res.note("%s: median %.4g ms, p%g %.4g ms (n=%d)", what, d.Median, d.TailP, d.Tail, d.N)
}
