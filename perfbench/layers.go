package main

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/sweep"
)

// The traced run measures each layer from outside: it wraps the seams
// the program already exposes — sweep.Backend, sweep.KernelSpec.New and
// the http.Handler of the server — and records a
// span around every call that crosses one. Nothing inside the program is
// instrumented for the benchmark.

// span is one interval of a traced repetition, in milliseconds from the
// repetition's origin. Parent is the index of the enclosing span in the
// recorder's list, -1 for a root.
type span struct {
	Layer, Name string
	Start, End  float64
	Parent      int
	// Key ties a span to its parent: a cache span's cache key, or the
	// client of an HTTP span.
	Key string
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder collects spans and counters from concurrent wrappers.
type recorder struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newRecorder(origin time.Time) *recorder {
	return &recorder{origin: origin, counts: map[string]float64{}}
}

func (r *recorder) ms(t time.Time) float64 { return ms(t.Sub(r.origin)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// add records a span that ran from t0 until now.
func (r *recorder) add(layer, name, key string, t0 time.Time) {
	s := span{Layer: layer, Name: name, Key: key, Start: r.ms(t0), End: r.ms(time.Now()), Parent: -1}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// count adds v to the named counter.
func (r *recorder) count(name string, v float64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// timedBackend is a sweep.Backend that times every tier access.
type timedBackend struct {
	sweep.Backend
	rec *recorder
}

func (b timedBackend) observe(op, key string, t0 time.Time, hit, isGet bool) {
	b.rec.add("sweep", "cache."+op, key, t0)
	b.rec.count("sweep.cache."+op+"_ms", ms(time.Since(t0)))
	if isGet {
		if hit {
			b.rec.count("sweep.cache.hits", 1)
		} else {
			b.rec.count("sweep.cache.misses", 1)
		}
	}
}

func (b timedBackend) GetTests(key string) ([]kernel.TestCase, bool) {
	t0 := time.Now()
	tests, ok := b.Backend.GetTests(key)
	b.observe("get_tests", key, t0, ok, true)
	return tests, ok
}

func (b timedBackend) PutTests(key string, tests []kernel.TestCase) error {
	t0 := time.Now()
	err := b.Backend.PutTests(key, tests)
	b.observe("put_tests", key, t0, false, false)
	return err
}

func (b timedBackend) GetCell(key string) (*sweep.KernelCell, bool) {
	t0 := time.Now()
	cell, ok := b.Backend.GetCell(key)
	b.observe("get_cell", key, t0, ok, true)
	return cell, ok
}

func (b timedBackend) PutCell(key string, cell sweep.KernelCell) error {
	t0 := time.Now()
	err := b.Backend.PutCell(key, cell)
	b.observe("put_cell", key, t0, false, false)
	return err
}

// timedKernels wraps each implementation's constructor so every kernel
// build is counted and timed per implementation.
func timedKernels(ks []sweep.KernelSpec, rec *recorder) []sweep.KernelSpec {
	out := make([]sweep.KernelSpec, len(ks))
	for i, k := range ks {
		name, build := k.Name, k.New
		out[i] = sweep.KernelSpec{Name: name, New: func() kernel.Kernel {
			t0 := time.Now()
			kn := build()
			rec.add("kernel", "build "+name, name, t0)
			rec.count("kernel.builds."+name, 1)
			rec.count("kernel.build_ms."+name, ms(time.Since(t0)))
			return kn
		}}
	}
	return out
}

// prefixHandler wraps the traced server. It serves next under
// per-caller path prefixes ("/c1", "/c2", ...): it strips the first path
// element, which names the caller, times each request and counts the
// bytes it answered. Giving every client its own prefix is what lets a
// handler span be matched to the one client-side call that caused it.
// The untraced server is not wrapped.
type prefixHandler struct {
	next http.Handler
	rec  *recorder
}

func (h prefixHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	caller, rest := splitCaller(r.URL.Path)
	r2 := r.Clone(r.Context())
	r2.URL.Path = rest
	r2.URL.RawPath = ""
	t0 := time.Now()
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r2)
	h.rec.add("commuter", "handler "+rest, caller, t0)
	h.rec.count("commuter.handler_ms", ms(time.Since(t0)))
	h.rec.count("commuter.response_bytes", float64(cw.n))
}

// splitCaller splits "/c1/v1/sweep" into "c1" and "/v1/sweep".
func splitCaller(p string) (caller, rest string) {
	p = strings.TrimPrefix(p, "/")
	caller, rest, _ = strings.Cut(p, "/")
	return caller, "/" + rest
}

// countingWriter counts response body bytes; Unwrap keeps the server's
// per-frame flushes (through http.ResponseController) reaching the
// connection.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// attach makes the innermost of candidates that contains spans[i] the
// parent of spans[i]. It reports whether one did.
func attach(spans []span, i int, candidates []int) bool {
	best := -1
	for _, c := range candidates {
		s := spans[c]
		if s.Start <= spans[i].Start && spans[i].End <= s.End &&
			(best < 0 || s.dur() < spans[best].dur()) {
			best = c
		}
	}
	if best < 0 {
		return false
	}
	spans[i].Parent = best
	return true
}

// attachNearest makes the candidate closest in time to spans[i] its
// parent: the one overlapping it most, else the one with the smallest gap.
// Cache spans use it, because a pair's span is placed from offsets the
// result reports and can sit a fraction of a millisecond off the calls it
// made. It reports whether there was a candidate.
func attachNearest(spans []span, i int, candidates []int) bool {
	best, bestScore := -1, 0.0
	for _, c := range candidates {
		// Overlap when positive, minus the gap otherwise.
		score := min(spans[c].End, spans[i].End) - max(spans[c].Start, spans[i].Start)
		if best < 0 || score > bestScore {
			best, bestScore = c, score
		}
	}
	if best < 0 {
		return false
	}
	spans[i].Parent = best
	return true
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its children cover. Children may overlap one another (parallel workers,
// concurrent cache calls); the covered part is their union, clipped to
// the parent.
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		var iv [][2]float64
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				iv = append(iv, [2]float64{a, b})
			}
		}
		out[s.Layer] += s.dur() - unionLength(iv)
	}
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, end := 0.0, 0.0
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
			continue
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}
