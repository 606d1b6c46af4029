package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/commuter"
	"repro/internal/eval"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// A child is one fresh process doing the measured work: one repetition of
// a sweep workload, the serving half of a served-warm repetition, or the
// set-up that prepares a repetition's directory cache (recheck's TESTGEN
// fill, served-warm's warm-up). It prints "ready" once its set-up is
// done, then one JSON childResult line. A fresh process per repetition keeps every cold
// sweep cold (the symbolic engine's intern table is process-wide) and
// gives each repetition its own peak RSS.

// childResult is what a child reports to the benchmark process.
type childResult struct {
	// WallS is the sweep calls' wall time, or served-warm's closed loop's.
	WallS    float64   `json:"wall_s"`
	CPUS     float64   `json:"cpu_s"`
	MaxRSSMB float64   `json:"max_rss_mb"`
	Ops      int       `json:"ops"`
	Failed   int       `json:"failed"`
	Failures []string  `json:"failures,omitempty"`
	PairMS   []float64 `json:"pair_ms,omitempty"`
	// Requests are served-warm's requests.
	Requests []request `json:"requests,omitempty"`
	// Layers holds the per-layer metrics of a traced repetition, and
	// Posix its posix pairs for the verdict cross-check.
	Layers map[string]float64 `json:"layers,omitempty"`
	Posix  []sweep.PairResult `json:"posix,omitempty"`
}

// request is one served-warm request.
type request struct {
	LatencyMS float64 `json:"latency_ms"`
	Traced    bool    `json:"traced,omitempty"`
}

type childFlags struct {
	kind     string
	dir      string
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
	root     string
	posix    string
}

func childMain(args []string) int {
	var f childFlags
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	fs.StringVar(&f.kind, "kind", "", "cold, recheck, fill, warm or served")
	fs.StringVar(&f.dir, "dir", "", "cache directory")
	fs.Uint64Var(&f.seed, "seed", 1, "input seed")
	fs.Float64Var(&f.seconds, "seconds", 10, "served-warm loop length")
	fs.BoolVar(&f.traced, "traced", false, "wrap the program's seams and report per-layer metrics")
	fs.StringVar(&f.traceOut, "trace-out", "", "Chrome trace file of a traced repetition")
	fs.StringVar(&f.root, "root", ".", "repository root")
	fs.StringVar(&f.posix, "posix", "", "file of the verified posix result that warm writes and served checks subsets against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := runChild(context.Background(), f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func ready() { fmt.Println("ready") }

// op records one attempted operation and the problems found with it; an
// operation with any problem counts as failed once.
func (r *childResult) op(problems ...string) {
	r.Ops++
	if len(problems) > 0 {
		r.Failed++
		r.Failures = append(r.Failures, problems...)
	}
}

func runChild(ctx context.Context, f childFlags) (*childResult, error) {
	refs, err := loadReferences(f.root)
	if err != nil {
		return nil, err
	}
	switch f.kind {
	case "fill":
		return fill(ctx, f)
	case "warm":
		return warm(ctx, f, refs)
	case "cold", "recheck":
		return sweepRep(ctx, f, refs)
	case "served":
		return servedRun(ctx, f, refs)
	}
	return nil, fmt.Errorf("unknown child kind %q", f.kind)
}

// workers is the sweep pool size: one worker per CPU, as `commuter sweep`
// defaults to.
func workers() int { return runtime.NumCPU() }

// config builds the engine configuration Local() builds for a
// full-universe sweep with default options.
func config(u string, w int, cache sweep.Backend) (sweep.Config, error) {
	sp, err := spec.Lookup(u)
	if err != nil {
		return sweep.Config{}, err
	}
	ks, err := eval.ImplSpecs(sp)
	if err != nil {
		return sweep.Config{}, err
	}
	return sweep.Config{Spec: sp, Ops: mustOpSet(sp, "all"), Kernels: ks, Workers: w, Cache: cache}, nil
}

// fill runs ANALYZE and TESTGEN for the posix universe into the cache
// directory and nothing else: a sweep with no kernels stores only the
// TESTGEN tier.
func fill(ctx context.Context, f childFlags) (*childResult, error) {
	b, err := sweep.OpenBackend(f.dir)
	if err != nil {
		return nil, err
	}
	cfg, err := config("posix", workers(), b)
	if err != nil {
		return nil, err
	}
	cfg.Kernels = nil
	res, err := sweep.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := &childResult{}
	if st := res.Cache; st.TestgenMisses != len(res.Pairs) || st.TestgenHits != 0 {
		out.op(fmt.Sprintf("fill: testgen %d hits/%d misses, want 0/%d", st.TestgenHits, st.TestgenMisses, len(res.Pairs)))
	} else {
		out.op()
	}
	ready()
	return out, nil
}

// warm is served-warm's set-up: one cold sweep of every universe on all
// kernels into the directory cache the server will read, each checked
// against its reference. It saves the verified posix result, which the
// serving process checks each posix subset against.
func warm(ctx context.Context, f childFlags, refs *references) (*childResult, error) {
	b, err := sweep.OpenBackend(f.dir)
	if err != nil {
		return nil, err
	}
	out := &childResult{}
	for _, u := range universes {
		res, err := commuter.Local().Sweep(ctx, commuter.WithSpec(u.spec), commuter.WithOpSet("all"), commuter.WithCacheBackend(b))
		if err != nil {
			return nil, fmt.Errorf("warm %s: %w", u.spec, err)
		}
		if bad := refs.checkUniverse(res, u); len(bad) > 0 {
			return nil, fmt.Errorf("warm %s: %s", u.spec, strings.Join(bad, "; "))
		}
		out.op()
		if u.spec == "posix" {
			data, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(f.posix, data, 0o644); err != nil {
				return nil, err
			}
		}
	}
	ready()
	return out, nil
}

// runStreamed runs a sweep the way commuter.Local() does: the engine's
// progress events cross a channel to the calling goroutine, as each pair
// reaches a Client's stream. A traced repetition calls the engine itself,
// so that it can pass wrapped kernels, and goes through the same bridge
// so that it runs the same code as an untraced one.
func runStreamed(ctx context.Context, cfg sweep.Config) (*sweep.Result, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	events := make(chan sweep.Event)
	cfg.Progress = func(ev sweep.Event) {
		select {
		case events <- ev:
		case <-sctx.Done():
		}
	}
	var (
		res *sweep.Result
		err error
	)
	go func() {
		defer close(events)
		res, err = sweep.RunContext(sctx, cfg)
	}()
	for range events {
	}
	return res, err
}

// usage is a snapshot of the process's CPU time and Go heap counters.
type usage struct {
	cpu      float64
	alloc    uint64
	mallocs  uint64
	gcCPU    float64
	totalCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return usage{
		cpu:      tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		alloc:    ms.TotalAlloc,
		mallocs:  ms.Mallocs,
		gcCPU:    cpuSamples[0].Value.Float64(),
		totalCPU: cpuSamples[1].Value.Float64(),
	}
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goLayers adds the go.* metrics for the work between two snapshots,
// divided over n repetitions.
func goLayers(l map[string]float64, a, b usage, n float64) {
	l["go.alloc_mb"] = float64(b.alloc-a.alloc) / (1 << 20) / n
	l["go.mallocs"] = float64(b.mallocs-a.mallocs) / n
	if d := b.totalCPU - a.totalCPU; d > 0 {
		l["go.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	}
}

// call is one sweep call of a repetition as the benchmark saw it.
type call struct {
	spec       string
	start, end time.Time
	workers    int
	pairs      []sweep.PairResult
	cfg        sweep.Config
}

// sweepRep is one repetition of cold-sweep or recheck.
func sweepRep(ctx context.Context, f childFlags, refs *references) (*childResult, error) {
	us := universes[:1]
	if f.kind == "cold" {
		us = universes
	}
	var cache sweep.Backend
	if f.kind == "recheck" {
		b, err := sweep.OpenBackend(f.dir)
		if err != nil {
			return nil, err
		}
		cache = b
	}
	ready()

	out := &childResult{}
	var rec *recorder
	if f.traced {
		rec = newRecorder(time.Now())
		if cache != nil {
			cache = timedBackend{cache, rec}
		}
	}
	var calls []call
	u0 := snapshot()
	for _, u := range us {
		cfg, err := config(u.spec, workers(), cache)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		var res *sweep.Result
		if rec != nil {
			cfg.Kernels = timedKernels(cfg.Kernels, rec)
			res, err = runStreamed(ctx, cfg)
		} else {
			opts := []commuter.Option{commuter.WithSpec(u.spec), commuter.WithOpSet("all"), commuter.WithWorkers(cfg.Workers)}
			if cache != nil {
				opts = append(opts, commuter.WithCacheBackend(cache))
			}
			res, err = commuter.Local().Sweep(ctx, opts...)
		}
		t1 := time.Now()
		if err != nil {
			out.op(fmt.Sprintf("%s: %v", u.spec, err))
			continue
		}
		out.WallS += t1.Sub(t0).Seconds()
		calls = append(calls, call{spec: u.spec, start: t0, end: t1, workers: res.Workers, pairs: res.Pairs, cfg: cfg})
		bad := refs.checkUniverse(res, u)
		if f.kind == "recheck" {
			st, n := res.Cache, len(res.Pairs)
			if st.TestgenHits != n || st.TestgenMisses != 0 || st.CheckHits != 0 || st.CheckMisses != 2*n {
				bad = append(bad, fmt.Sprintf("recheck: testgen %d hits/%d misses, check %d hits/%d misses; want %d/0, 0/%d",
					st.TestgenHits, st.TestgenMisses, st.CheckHits, st.CheckMisses, n, 2*n))
			}
		}
		out.op(bad...)
		if rec != nil && u.spec == "posix" {
			out.Posix = res.Pairs
		}
	}
	u1 := snapshot()
	out.CPUS = u1.cpu - u0.cpu
	out.MaxRSSMB = maxRSSMB()
	for _, c := range calls {
		for _, p := range c.pairs {
			out.PairMS = append(out.PairMS, p.ElapsedMS)
		}
	}
	if rec != nil {
		if err := tracedLayers(out, calls, rec, u0, u1, f.traceOut); err != nil {
			return nil, err
		}
	}
	return out, nil
}
