package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/commuter"
	"repro/internal/kernel"
	"repro/internal/spec"
	"repro/internal/sweep"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, 10)); ok {
		t.Fatal("ten samples cannot have a percentile with ten beyond it")
	}
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail, want 10", beyond)
	}
	if v, pct, _ := tail(xs[:11]); v != 90 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Fatalf("tail of 11 samples = %v at p%v, want the smallest at p%v", v, pct, 100.0/11)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{Layer: "sweep", Start: 0, End: 10, Parent: -1},
		{Layer: "kernel", Start: 1, End: 4, Parent: 0},
		{Layer: "kernel", Start: 3, End: 6, Parent: 0},  // overlaps its sibling
		{Layer: "kernel", Start: 8, End: 12, Parent: 0}, // runs past the parent
		{Layer: "testgen", Start: 2, End: 3, Parent: 1}, // a grandchild
	}
	got := selfTimes(spans)
	// The parent's children cover [1,6] and [8,10]: 7 of its 10 ms.
	if got["sweep"] != 3 {
		t.Errorf("sweep self time %v, want 3", got["sweep"])
	}
	// 3-1 + 3 + 4 of the kernel spans, less the grandchild's 1 ms.
	if got["kernel"] != 9 || got["testgen"] != 1 {
		t.Errorf("kernel self %v, testgen self %v; want 9 and 1", got["kernel"], got["testgen"])
	}
}

func TestAttachPicksInnermostContainingSpan(t *testing.T) {
	spans := []span{
		{Name: "outer", Start: 0, End: 10},
		{Name: "inner", Start: 2, End: 5},
		{Name: "disjoint", Start: 5, End: 6},
		{Name: "child", Start: 3, End: 4, Parent: -1},
	}
	if !attach(spans, 3, []int{0, 1, 2}) || spans[3].Parent != 1 {
		t.Fatalf("parent %d, want the inner span", spans[3].Parent)
	}
	spans[3].Start, spans[3].End, spans[3].Parent = 11, 12, -1
	if attach(spans, 3, []int{0, 1, 2}) {
		t.Fatal("a span outside every candidate was attached")
	}
}

func TestAttachNearestPrefersOverlapThenSmallestGap(t *testing.T) {
	spans := []span{
		{Name: "early", Start: 0, End: 1},
		{Name: "overlapping", Start: 1.5, End: 3},
		{Name: "late", Start: 10, End: 11},
		{Name: "cache", Start: 2.5, End: 3.5, Parent: -1},
	}
	if !attachNearest(spans, 3, []int{0, 1, 2}) || spans[3].Parent != 1 {
		t.Fatalf("parent %d, want the overlapping span", spans[3].Parent)
	}
	spans[3].Start, spans[3].End = 8, 9
	if attachNearest(spans, 3, []int{0, 1, 2}); spans[3].Parent != 2 {
		t.Fatalf("parent %d, want the span with the smallest gap", spans[3].Parent)
	}
	if attachNearest(spans, 3, nil) {
		t.Fatal("attached with no candidates")
	}
}

func TestTimedBackendCountsEveryCall(t *testing.T) {
	rec := newRecorder(time.Now())
	b := timedBackend{sweep.NewMemBackend(16), rec}
	tests := []kernel.TestCase{{ID: "t"}}
	for _, k := range []string{"a", "b"} {
		if err := b.PutTests(k, tests); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"a", "b", "missing"} {
		b.GetTests(k)
	}
	if err := b.PutCell("c", sweep.KernelCell{Kernel: "linux", Total: 1}); err != nil {
		t.Fatal(err)
	}
	b.GetCell("c")
	b.GetCell("missing")

	l := map[string]float64{}
	addCounts(l, rec, 1)
	if len(rec.spans) != 8 {
		t.Errorf("%d spans for 8 calls", len(rec.spans))
	}
	if l["sweep.cache.hit_ratio"] != 0.6 {
		t.Errorf("hit ratio %v, want 3 hits of 5 gets", l["sweep.cache.hit_ratio"])
	}
	for _, k := range []string{"get_tests", "put_tests", "get_cell", "put_cell"} {
		if _, ok := l["sweep.cache."+k+"_ms"]; !ok {
			t.Errorf("no sweep.cache.%s_ms", k)
		}
	}
}

func TestTimedKernelsCountBuilds(t *testing.T) {
	sp, err := spec.Lookup("queue")
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(time.Now())
	ks := timedKernels([]sweep.KernelSpec{{Name: "memq", New: sp.Impls()[0].New}}, rec)
	for range 3 {
		ks[0].New()
	}
	if got := rec.counts["kernel.builds.memq"]; got != 3 {
		t.Fatalf("%v builds counted, want 3", got)
	}
}

func TestPrefixHandlerStripsCallerAndCountsBytes(t *testing.T) {
	rec := newRecorder(time.Now())
	var path string
	h := prefixHandler{rec: rec, next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path = r.URL.Path
		io.WriteString(w, "hello")
	})}
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/c2/v1/specs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if path != "/v1/specs" {
		t.Errorf("handler saw %q, want the caller prefix stripped", path)
	}
	if rec.counts["commuter.response_bytes"] != 5 || len(rec.spans) != 1 || rec.spans[0].Key != "c2" {
		t.Errorf("bytes %v, spans %+v; want 5 bytes in one span keyed c2", rec.counts["commuter.response_bytes"], rec.spans)
	}
}

func TestReferenceCheckCatchesFlippedCell(t *testing.T) {
	refs, err := loadReferences("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range universes {
		res, err := commuter.Local().Sweep(context.Background(), commuter.WithSpec(u.spec), commuter.WithOpSet("all"))
		if err != nil {
			t.Fatal(err)
		}
		if bad := refs.checkUniverse(res, u); len(bad) > 0 {
			t.Fatalf("%s: unchanged sweep flagged: %v", u.spec, bad)
		}
		// Flip a cell; in posix, one inside the fs sub-block, which both
		// the benchmark's reference and the fs golden must catch.
		flip, want := len(res.Pairs)/2, 1
		if u.spec == "posix" {
			for i, p := range res.Pairs {
				if p.OpA == "rename" && p.OpB == "rename" {
					flip, want = i, 2
				}
			}
		}
		res.Pairs[flip].Cells[0].Conflicts++
		bad := refs.checkUniverse(res, u)
		if len(bad) != want {
			t.Errorf("%s: flipped cell reported as %v, want %d problems", u.spec, bad, want)
		}
		for _, b := range bad {
			if !strings.Contains(b, "differ") {
				t.Errorf("%s: unexpected problem %q", u.spec, b)
			}
		}
	}
}

func TestComparableRefusesDifferentStamps(t *testing.T) {
	st := stamp{Workload: "recheck", Seed: 1, Seconds: 20, NProc: 2, GOMAXPROCS: 2, Workers: 2, Go: "go1.24.0"}
	run := func(s stamp) savedRun { return savedRun{path: "x", st: s} }
	other := st
	other.Seed = 2
	if why := comparable([]savedRun{run(st), run(other)}, []savedRun{run(other), run(st)}); why != "" {
		t.Errorf("same conditions refused: %s", why)
	}
	oneCPU := st
	oneCPU.NProc, oneCPU.Workers = 1, 1
	if why := comparable([]savedRun{run(st)}, []savedRun{run(oneCPU)}); !strings.Contains(why, `"nproc":1`) {
		t.Errorf("nproc 2 against 1 not refused with the reason: %q", why)
	}
	if why := comparable([]savedRun{run(st)}, []savedRun{run(other)}); !strings.Contains(why, "seeds") {
		t.Errorf("different seeds not refused: %q", why)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, benchmark %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not one the benchmark runs", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %v, the benchmark runs %v", names, workloadNames())
	}
}
