package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/commuter"
	"repro/internal/analyzer"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/testgen"
)

// servedKind is one kind of served-warm request: a posix subset of size
// calls (18 is the whole universe), or, with size 0, the full universe u.
type servedKind struct {
	u    universe
	size int
}

// servedKinds is the request mix. Every client walks through all kinds in
// a seeded order before repeating one, so each run sends nearly the same
// mix of sizes whatever the seed; the seed picks the order and which
// posix calls each subset holds.
var servedKinds = func() []servedKind {
	var ks []servedKind
	for n := 6; n <= 18; n++ {
		ks = append(ks, servedKind{universes[0], n})
	}
	for _, u := range universes[1:] {
		ks = append(ks, servedKind{u, 0})
	}
	return ks
}()

// servedCall is one request of the closed loop. Its result is checked
// as soon as it arrives and kept only when traced, for laying out its
// spans, so that the serving process's peak RSS does not grow with the
// number of requests the loop completes.
type servedCall struct {
	kind   servedKind
	ops    []string
	client string
	start  time.Time
	end    time.Time
	res    *sweep.Result
	bad    []string
	traced bool
}

// tracedSliceCount is how many alternating slices a traced served-warm
// run is cut into: even slices go to the plain server and odd ones to the
// wrapped one, so the two halves see the same drift and their difference
// is the tracing overhead.
const tracedSliceCount = 10

// servedRun is the serving half of a served-warm repetition: start an
// in-process server on a directory cache a warm child filled, then drive
// a closed loop of one Dial client per CPU against it for the given
// seconds.
func servedRun(ctx context.Context, f childFlags, refs *references) (*childResult, error) {
	out := &childResult{}
	b, err := sweep.OpenBackend(f.dir)
	if err != nil {
		return nil, err
	}
	h, err := commuter.NewServerHandler(commuter.Local(), commuter.ServeWithBackend(b), commuter.ServeWithLogger(quietLogger()))
	if err != nil {
		return nil, err
	}
	plainURL, stopPlain, err := serve(h)
	if err != nil {
		return nil, err
	}
	defer stopPlain()
	var rec *recorder
	tracedURL := ""
	if f.traced {
		rec = newRecorder(time.Now())
		th, err := commuter.NewServerHandler(commuter.Local(), commuter.ServeWithBackend(timedBackend{b, rec}), commuter.ServeWithLogger(quietLogger()))
		if err != nil {
			return nil, err
		}
		var stopTraced func()
		if tracedURL, stopTraced, err = serve(prefixHandler{next: th, rec: rec}); err != nil {
			return nil, err
		}
		defer stopTraced()
	}
	posix, err := spec.Lookup("posix")
	if err != nil {
		return nil, err
	}
	allPosix := spec.OpNames(posix)
	ready()
	posixFull, err := loadResult(f.posix)
	if err != nil {
		return nil, err
	}

	clients := workers()
	loop := time.Duration(f.seconds * float64(time.Second))
	slice := loop / tracedSliceCount
	calls := make([][]servedCall, clients)
	u0 := snapshot()
	start := time.Now()
	deadline := start.Add(loop)
	var wg sync.WaitGroup
	for i := range clients {
		name := fmt.Sprintf("c%d", i+1)
		plain, err := commuter.Dial(plainURL)
		if err != nil {
			return nil, err
		}
		defer plain.Close()
		traced := plain
		if rec != nil {
			if traced, err = commuter.Dial(tracedURL + "/" + name); err != nil {
				return nil, err
			}
			defer traced.Close()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(f.seed, uint64(i)))
			var order []int
			for time.Now().Before(deadline) {
				if len(order) == 0 {
					order = rng.Perm(len(servedKinds))
				}
				c := servedCall{kind: servedKinds[order[0]], client: name}
				order = order[1:]
				opts := []commuter.Option{commuter.WithSpec(c.kind.u.spec)}
				if c.kind.size == 0 {
					opts = append(opts, commuter.WithOpSet("all"))
				} else {
					c.ops = pickOps(rng, allPosix, c.kind.size)
					opts = append(opts, commuter.WithOps(c.ops...))
				}
				cli := plain
				if rec != nil && int(time.Since(start)/slice)%2 == 1 {
					cli, c.traced = traced, true
				}
				c.start = time.Now()
				res, err := cli.Sweep(ctx, opts...)
				c.end = time.Now()
				c.bad = checkServed(c, res, err, refs, posixFull)
				if c.traced && err == nil {
					c.res = res
				}
				calls[i] = append(calls[i], c)
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	u1 := snapshot()

	var all []servedCall
	for _, cs := range calls {
		all = append(all, cs...)
	}
	for _, c := range all {
		out.Requests = append(out.Requests, request{LatencyMS: ms(c.end.Sub(c.start)), Traced: c.traced})
		out.op(c.bad...)
	}
	out.WallS = end.Sub(start).Seconds()
	out.CPUS = (u1.cpu - u0.cpu) / float64(max(len(all), 1))
	out.MaxRSSMB = maxRSSMB()
	if rec != nil {
		out.Layers, err = servedLayers(all, rec, f.traceOut)
		if err != nil {
			return nil, err
		}
		goLayers(out.Layers, u0, u1, float64(max(len(all), 1)))
		out.Posix = posixFull.Pairs
	}
	return out, nil
}

// checkServed compares one served request's result with its reference:
// a full universe with the universe's reference, a posix subset with the
// same subset of the warm child's verified full result.
func checkServed(c servedCall, res *sweep.Result, err error, refs *references, posixFull *sweep.Result) []string {
	switch {
	case err != nil:
		return []string{fmt.Sprintf("request %s %v: %v", c.kind.u.spec, c.ops, err)}
	case c.kind.size == 0:
		return refs.checkUniverse(res, c.kind.u)
	}
	return checkSubset(res, posixFull, c.ops)
}

// loadResult reads the sweep result a warm child saved.
func loadResult(path string) (*sweep.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &sweep.Result{}
	return res, json.Unmarshal(data, res)
}

// pickOps draws n distinct calls from all and returns them in all's
// (the spec's) order, which fixes each pair's orientation and so its
// cache key.
func pickOps(rng *rand.Rand, all []string, n int) []string {
	idx := rng.Perm(len(all))[:n]
	sort.Ints(idx)
	ops := make([]string, n)
	for i, j := range idx {
		ops[i] = all[j]
	}
	return ops
}

// servedLayers derives served-warm's per-layer metrics, per request, from
// the traced requests and writes their trace.
func servedLayers(all []servedCall, rec *recorder, traceOut string) (map[string]float64, error) {
	l := map[string]float64{}
	rec.mu.Lock()
	spans := append([]span(nil), rec.spans...)
	rec.mu.Unlock()
	nrec := len(spans)
	add := func(s span) int { spans = append(spans, s); return len(spans) - 1 }
	root := add(span{Layer: "bench", Name: "loop", Parent: -1})

	var handlerIdx []int
	for i := 0; i < nrec; i++ {
		if spans[i].Layer == "commuter" {
			handlerIdx = append(handlerIdx, i)
		}
	}
	var untraced, traced, pairMS []float64
	pairsOf := map[string][]int{} // cache key -> the pair spans it serves
	var busy, capacity float64
	n := 0.0
	for _, c := range all {
		lat := ms(c.end.Sub(c.start))
		if !c.traced {
			untraced = append(untraced, lat)
			continue
		}
		traced = append(traced, lat)
		n++
		ri := add(span{Layer: "api", Name: "request " + c.kind.u.spec, Start: rec.ms(c.start), End: rec.ms(c.end), Parent: root, Key: c.client})
		spans[root].End = max(spans[root].End, spans[ri].End)
		if c.res == nil {
			continue
		}
		// The request's handler span is the one its client's prefix
		// tagged inside the request's interval; the pairs ran in it.
		hi := -1
		for _, h := range handlerIdx {
			if spans[h].Key == c.client && spans[h].Start >= spans[ri].Start && spans[h].End <= spans[ri].End {
				spans[h].Parent = ri
				hi = h
			}
		}
		if hi < 0 {
			continue
		}
		w := c.res.Workers
		if w <= 0 {
			w = workers()
		}
		capacity += spans[hi].dur() * float64(w)
		for _, p := range c.res.Pairs {
			pairMS = append(pairMS, p.ElapsedMS)
			busy += p.ElapsedMS
			tg := sweep.TestgenKey(c.kind.u.spec, p.OpA, p.OpB, analyzer.Options{}, testgen.Options{})
			s := spans[hi].Start + p.StartMS
			pi := add(span{Layer: "sweep", Name: p.Pair(), Start: s, End: s + p.ElapsedMS, Parent: hi})
			pairsOf[tg] = append(pairsOf[tg], pi)
			for _, cell := range p.Cells {
				l["kernel.conflicting_tests."+cell.Kernel] += float64(cell.Conflicts)
				ck := sweep.CheckKey(tg, cell.Kernel)
				pairsOf[ck] = append(pairsOf[ck], pi)
			}
		}
	}
	for i := 0; i < nrec; i++ {
		if strings.HasPrefix(spans[i].Name, "cache.") {
			_ = attachNearest(spans, i, pairsOf[spans[i].Key]) || attach(spans, i, handlerIdx)
		}
		if spans[i].Parent < 0 {
			spans[i].Parent = root
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("served-warm: no traced request completed")
	}
	for k := range l {
		l[k] /= n
	}
	addPairStats(l, pairMS, busy, capacity)
	l["bench.trace_overhead_ms"] = median(traced) - median(untraced)
	addCounts(l, rec, n)
	addSelfTimes(l, spans, n)
	return l, writeSpans(traceOut, spans)
}

// serve runs h on a loopback listener until stop is called, which
// returns once the server goroutine has exited.
func serve(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

// quietLogger drops the server's request log lines after formatting
// them, so the logging cost stays in the measurement but not on stderr.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }
