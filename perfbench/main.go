// Command perfbench is the repository's benchmark. It times the three
// things a COMMUTER user waits on — a cold sweep, a re-check of a changed
// kernel against tests that already exist, and a served sweep — checks
// every output against a reference, and in a traced run reports
// per-layer metrics measured by wrapping the program's public seams.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print every
// metric with its unit and a stamp of the conditions it was measured
// under. "perfbench compare" compares saved outputs of two sets of runs.
// See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/sweep"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"sweep_wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"request_p50_ms", "ms"},
	{"request_tail_ms", "ms"},
	{"requests_per_s", "1/s"},
	{"setup_s", "s"},
}

// impls are the implementations of all four specs.
var impls = []string{"linux", "sv6", "memvm", "memkv", "memq"}

// perLayer are the metrics a traced run reports.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"sym.sat_calls", "count"},
		{"sym.solver_ms", "ms"},
		{"sym.us_per_sat_call", "us"},
		{"sym.budget_hits", "count"},
		{"analyzer.busy_ms", "ms"},
		{"analyzer.self_ms", "ms"},
		{"testgen.busy_ms", "ms"},
		{"testgen.self_ms", "ms"},
		{"testgen.tests", "count"},
	}
	for _, im := range impls {
		ms = append(ms, metricDef{"kernel.builds." + im, "count"})
	}
	for _, im := range impls {
		ms = append(ms, metricDef{"kernel.build_ms." + im, "ms"})
	}
	ms = append(ms,
		metricDef{"kernel.check_busy_ms", "ms"},
		metricDef{"kernel.self_ms", "ms"},
		metricDef{"kernel.replay_us_per_test", "us"},
		metricDef{"kernel.check_groups", "count"})
	for _, im := range impls {
		ms = append(ms, metricDef{"kernel.conflicting_tests." + im, "count"})
	}
	return append(ms,
		metricDef{"kernel.noncommuting_tests.linux", "count"},
		metricDef{"kernel.crosscheck_mismatches", "count"},
		metricDef{"sweep.pair_p50_ms", "ms"},
		metricDef{"sweep.pair_max_ms", "ms"},
		metricDef{"sweep.pack_efficiency", "ratio"},
		metricDef{"sweep.self_ms", "ms"},
		metricDef{"sweep.cache.get_tests_ms", "ms"},
		metricDef{"sweep.cache.get_cell_ms", "ms"},
		metricDef{"sweep.cache.put_tests_ms", "ms"},
		metricDef{"sweep.cache.put_cell_ms", "ms"},
		metricDef{"sweep.cache.hit_ratio", "ratio"},
		metricDef{"commuter.handler_ms", "ms"},
		metricDef{"commuter.self_ms", "ms"},
		metricDef{"commuter.client_ms", "ms"},
		metricDef{"commuter.response_bytes", "bytes"},
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.mallocs", "count"},
		metricDef{"go.gc_cpu_frac", "ratio"},
		metricDef{"bench.trace_overhead_ms", "ms"},
	)
}()

// workloads maps each workload to the child kind that does its work.
var workloads = map[string]string{
	"cold-sweep":  "cold",
	"recheck":     "recheck",
	"served-warm": "served",
}

// stamp records the conditions a run was measured under. Timings whose
// stamps differ in anything but the seed are not comparable.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Go         string  `json:"go"`
}

// outcome is the benchmark's last output line.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runLimit bounds one run: a child still running when it expires is
// killed and the run reports the failure, so a hung program cannot keep
// the benchmark from printing its result.
const runLimit = 150 * time.Second

// runner holds one benchmark run's settings and what its children
// reported.
type runner struct {
	ctx                    context.Context
	root, build, work, exe string
	st                     stamp

	setups    []float64
	reps      []*childResult
	traced    []*childResult
	lastRep   int
	attempted int
	failed    int
	problems  []string
	traces    []string
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root")
	build := fs.String("build", ".bench_build", "directory for build products and scratch files")
	workload := fs.String("workload", "", "cold-sweep, recheck or served-warm")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	kind, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload in %s, --trace 0 or 1 and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := loadReferences(*root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*build, "perfbench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	r := &runner{ctx: ctx, root: abs, build: *build, work: work, exe: exe, st: stamp{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers(), Go: runtime.Version(),
	}}
	if err := r.run(kind); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		r.attempted++
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
	r.report(os.Stdout)
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// minReps is the fewest repetitions a sweep workload makes, so a traced
// run always has an untraced repetition to measure its overhead against.
const minReps = 2

// servedReps is how many repetitions a served-warm run makes. Each warms
// a fresh directory cache and then serves from it for a fifth of the
// run's seconds, so a run of 30 seconds spends about 12 of them warming
// and 18 serving.
const servedReps = 3

func (r *runner) run(kind string) error {
	var tests sweep.Backend
	var err error
	switch kind {
	case "served":
		err = r.served()
	case "recheck":
		err = r.recheck()
	default:
		// A repetition's set-up is its fresh process's start-up.
		err = r.repeat(func(i int, traced bool) error {
			setup, res, err := r.spawn(kind, r.traceArgs(i, traced)...)
			if err != nil {
				return err
			}
			r.record(setup, res, traced)
			return nil
		})
		tests = sweep.NewMemBackend(sweep.DefaultMemEntries)
	}
	if err != nil || r.st.Trace == 0 {
		return err
	}
	if tests == nil {
		// The last repetition's directory cache holds the posix tests.
		if tests, err = sweep.OpenBackend(r.repDir(r.lastRep, "cache")); err != nil {
			return err
		}
	}
	return r.crossCheck(tests)
}

// recheck runs repetitions of the recheck workload. Each fills a fresh
// directory cache with the TESTGEN tier alone, which is its set-up, then
// re-checks both kernels against it in a fresh process.
func (r *runner) recheck() error {
	return r.repeat(func(i int, traced bool) error {
		dir := r.repDir(i, "cache")
		fillSetup, _, err := r.spawn("fill", "-dir", dir)
		if err != nil {
			return err
		}
		setup, res, err := r.spawn("recheck", append([]string{"-dir", dir}, r.traceArgs(i, traced)...)...)
		if err != nil {
			return err
		}
		r.record(fillSetup+setup, res, traced)
		return nil
	})
}

// served runs served-warm's repetitions. Each warms a fresh directory
// cache with a cold sweep of every universe, which with the server's
// start-up is its set-up, then starts a fresh serving process on the
// warmed cache. Measuring the serving process apart from the warm-up
// gives it its own CPU time and peak RSS. In a traced run every
// repetition is traced; each alternates slices of its loop between a
// plain and a wrapped server.
func (r *runner) served() error {
	loop := r.st.Seconds / 5
	for i := range servedReps {
		cache, posix := r.repDir(i, "cache"), r.repDir(i, "posix.json")
		warmSetup, _, err := r.spawn("warm", "-dir", cache, "-posix", posix)
		if err != nil {
			return err
		}
		args := append([]string{"-dir", cache, "-posix", posix, "-seconds", fmt.Sprint(loop)}, r.traceArgs(i, r.st.Trace == 1)...)
		setup, res, err := r.spawn("served", args...)
		if err != nil {
			return err
		}
		r.record(warmSetup+setup, res, r.st.Trace == 1)
		if i > 0 {
			if err := os.RemoveAll(r.repDir(i-1, "")); err != nil {
				return err
			}
		}
		r.lastRep = i
	}
	return nil
}

// repeat runs repetitions until the run's seconds are used up, and at
// least minReps of them. A traced run alternates untraced and traced
// repetitions.
func (r *runner) repeat(rep func(i int, traced bool) error) error {
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < r.st.Seconds; i++ {
		if i > 0 {
			if err := os.RemoveAll(r.repDir(i-1, "")); err != nil {
				return err
			}
		}
		if err := rep(i, r.st.Trace == 1 && i%2 == 1); err != nil {
			return err
		}
		r.lastRep = i
	}
	return nil
}

// repDir names a file of repetition i's scratch directory.
func (r *runner) repDir(i int, name string) string {
	return filepath.Join(r.work, fmt.Sprintf("rep%d", i), name)
}

// traceArgs are the flags that make repetition i a traced one.
func (r *runner) traceArgs(i int, traced bool) []string {
	if !traced {
		return nil
	}
	return []string{"-traced", "-trace-out", r.tracePath(i)}
}

// record keeps one repetition's set-up time and result. In a traced
// served-warm run a repetition is both: its untraced slices are the
// untraced samples.
func (r *runner) record(setup float64, res *childResult, traced bool) {
	r.setups = append(r.setups, setup)
	if traced {
		r.traced = append(r.traced, res)
	}
	if !traced || r.st.Workload == "served-warm" {
		r.reps = append(r.reps, res)
	}
}

func (r *runner) tracePath(i int) string {
	p := filepath.Join(r.build, "perfbench-trace", fmt.Sprintf("%s-seed%d-rep%d.json", r.st.Workload, r.st.Seed, i))
	r.traces = append(r.traces, p)
	return p
}

// spawn runs one child to completion and returns its set-up time, from
// start until it reported ready, and its result. The result's operations
// are counted into the run's totals.
func (r *runner) spawn(kind string, args ...string) (float64, *childResult, error) {
	cmd := exec.CommandContext(r.ctx, r.exe, append([]string{"child", "-kind", kind, "-root", r.root, "-seed", fmt.Sprint(r.st.Seed)}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	var setup float64
	res := &childResult{}
	gotReady, gotResult := false, false
	for sc.Scan() {
		switch line := sc.Bytes(); {
		case !gotReady && string(line) == "ready":
			setup, gotReady = time.Since(t0).Seconds(), true
		case gotReady && !gotResult:
			gotResult = json.Unmarshal(line, res) == nil
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("%s child: %w", kind, err)
	}
	if scanErr != nil || !gotReady || !gotResult {
		return 0, nil, fmt.Errorf("%s child: no result (%v)", kind, scanErr)
	}
	r.attempted += res.Ops
	r.failed += res.Failed
	r.problems = append(r.problems, res.Failures...)
	return setup, res, nil
}

// crossCheck runs the independent verdict check against the posix
// pairs of the last traced repetition, reading the tests through b.
func (r *runner) crossCheck(b sweep.Backend) error {
	if len(r.traced) == 0 {
		return errors.New("traced run made no traced repetition")
	}
	last := r.traced[len(r.traced)-1]
	tests, err := posixTests(r.ctx, b, workers())
	if err != nil {
		return err
	}
	cc, err := crossCheck(r.ctx, tests, last.Posix, r.st.Seed)
	if err != nil {
		return err
	}
	r.attempted++
	if len(cc.Mismatches) > 0 {
		r.failed++
		r.problems = append(r.problems, cc.Mismatches...)
	}
	for _, t := range r.traced {
		t.Layers["kernel.noncommuting_tests.linux"] = float64(cc.NoncommutingLinux)
		t.Layers["kernel.crosscheck_mismatches"] = float64(len(cc.Mismatches))
	}
	n := 0
	for _, ts := range tests {
		n += len(ts)
	}
	fmt.Printf("cross-check: %d posix tests replayed on fresh linux kernels, %d sv6 setup groups sampled, %d mismatches\n",
		n, cc.SampledGroups, len(cc.Mismatches))
	return nil
}

// report prints every metric with its unit, the stamp, and the JSON
// outcome line last.
func (r *runner) report(w *os.File) {
	out := outcome{Correct: r.failed == 0 && r.attempted > 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]value{}}
	if r.attempted == 0 {
		out.Failed = 1
	}
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%d: %d operations, %d failed (failed_frac %.4g)\n",
		r.st.Workload, r.st.Seed, r.st.Trace, out.Attempted, out.Failed, float64(out.Failed)/float64(out.Attempted))
	for _, p := range r.problems {
		fmt.Fprintln(w, "  FAILED:", p)
	}
	if r.st.Trace == 0 {
		e, notes := r.endToEnd()
		for _, m := range endToEnd {
			out.Metrics[m.Name] = value{e[m.Name], m.Unit}
			fmt.Fprintf(w, "  %-17s %12.4f %s%s\n", m.Name, e[m.Name], m.Unit, notes[m.Name])
		}
		var walls, cpus []float64
		for _, c := range r.reps {
			walls, cpus = append(walls, c.WallS), append(cpus, c.CPUS)
		}
		fmt.Fprintf(w, "  per repetition: wall_s %s; cpu_s %s; setup_s %s\n", list(walls), list(cpus), list(r.setups))
	} else {
		l := r.perLayer()
		for _, m := range perLayer {
			out.Metrics[m.Name] = value{l[m.Name], m.Unit}
			note := ""
			if strings.HasSuffix(m.Name, "busy_ms") || strings.HasSuffix(m.Name, "self_ms") {
				note = fmt.Sprintf(" (summed over %d workers)", r.st.Workers)
			}
			fmt.Fprintf(w, "  %-34s %14.4f %s%s\n", m.Name, l[m.Name], m.Unit, note)
		}
		for _, p := range r.traces {
			fmt.Fprintln(w, "  trace:", p)
		}
	}
	st, _ := json.Marshal(r.st)
	fmt.Fprintf(w, "stamp: %s\n", st)
	line, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", line)
}

// endToEnd aggregates the untraced repetitions into the end-to-end
// metrics. A request is one served sweep on served-warm, where the
// requests of all repetitions are pooled. On the other workloads it is
// one pair of a sweep, as its caller's stream delivers it; there each
// repetition's pairs give a median and a tail, and the metric is their
// median over repetitions, so the tail's percentile does not move with
// the number of repetitions that fit in a run.
func (r *runner) endToEnd() (map[string]float64, map[string]string) {
	e, notes := map[string]float64{}, map[string]string{}
	var walls, cpus, rss, p50s, tails, pooled []float64
	requests, tailNote := 0, ""
	for _, c := range r.reps {
		walls = append(walls, c.WallS)
		cpus = append(cpus, c.CPUS)
		rss = append(rss, c.MaxRSSMB)
		lat := c.PairMS
		for _, q := range c.Requests {
			lat = append(lat, q.LatencyMS)
		}
		pooled = append(pooled, lat...)
		requests += len(lat)
		p50s = append(p50s, median(lat))
		if v, pct, ok := tail(lat); ok {
			tails = append(tails, v)
			tailNote = fmt.Sprintf(" (p%.2f of %d samples", pct, len(lat))
		}
	}
	e["cpu_s"] = median(cpus)
	e["peak_rss_mb"] = median(rss)
	e["request_p50_ms"] = median(p50s)
	e["request_tail_ms"] = median(tails)
	e["setup_s"] = median(r.setups)
	if s := sum(walls); s > 0 {
		e["requests_per_s"] = float64(requests) / s
	}
	notes["setup_s"] = fmt.Sprintf(" (median of %d)", len(r.setups))
	notes["peak_rss_mb"] = fmt.Sprintf(" (median of %d processes)", len(rss))
	if r.st.Workload == "served-warm" {
		e["request_p50_ms"] = median(pooled)
		e["request_tail_ms"] = 0
		if v, pct, ok := tail(pooled); ok {
			e["request_tail_ms"] = v
			notes["request_tail_ms"] = fmt.Sprintf(" (p%.2f of %d samples)", pct, len(pooled))
		}
		e["sweep_wall_s"] = e["request_p50_ms"] / 1000
		notes["sweep_wall_s"] = " (median request)"
		notes["cpu_s"] = " (per request, median over processes)"
		return e, notes
	}
	e["sweep_wall_s"] = median(walls)
	notes["sweep_wall_s"] = fmt.Sprintf(" (median of %d repetitions)", len(walls))
	notes["request_p50_ms"] = " (pairs, median over repetitions)"
	notes["request_tail_ms"] = tailNote + " per repetition, median over repetitions)"
	return e, notes
}

// perLayer takes each per-layer metric's median over the traced
// repetitions and measures the tracing overhead against the untraced
// ones.
func (r *runner) perLayer() map[string]float64 {
	l := map[string]float64{}
	for _, m := range perLayer {
		var xs []float64
		for _, t := range r.traced {
			xs = append(xs, t.Layers[m.Name])
		}
		l[m.Name] = median(xs)
	}
	if r.st.Workload != "served-warm" {
		var tw, uw []float64
		for _, t := range r.traced {
			tw = append(tw, t.WallS)
		}
		for _, u := range r.reps {
			uw = append(uw, u.WallS)
		}
		l["bench.trace_overhead_ms"] = (median(tw) - median(uw)) * 1000
	}
	return l
}

// list formats xs for the per-repetition line.
func list(xs []float64) string {
	ss := make([]string, len(xs))
	for i, x := range xs {
		ss[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(ss, " ") + "]"
}
