package main

import (
	"context"
	_ "embed"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/commuter"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// universe is one spec's full operation universe, swept on all of the
// spec's implementations, with the number of tests TESTGEN must produce.
type universe struct {
	spec  string
	tests int
}

// universes are the Figure 6 universes every sweep workload runs.
var universes = []universe{{"posix", 6413}, {"vm", 540}, {"kv", 74}, {"queue", 47}}

// The posix and queue matrices have no golden file in the repository,
// so the benchmark keeps its own; the fs sub-block of the posix one is
// checked against the repository's fs golden on every repetition.
var (
	//go:embed testdata/matrix_posix.ref
	refPosix string
	//go:embed testdata/matrix_queue.ref
	refQueue string
)

// references holds the expected rendering of every universe.
type references struct {
	full map[string]string
	fs   string
}

// loadReferences reads the repository's golden matrices under root.
func loadReferences(root string) (*references, error) {
	read := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join(root, "cmd", "commuter", "testdata", name))
		return string(b), err
	}
	r := &references{full: map[string]string{"posix": refPosix, "queue": refQueue}}
	var err error
	if r.full["vm"], err = read("matrix_vm.golden"); err != nil {
		return nil, err
	}
	if r.full["kv"], err = read("matrix_kv.golden"); err != nil {
		return nil, err
	}
	if r.fs, err = read("matrix_fs.golden"); err != nil {
		return nil, err
	}
	return r, nil
}

// render formats a sweep's matrices the way `commuter matrix` prints them.
func render(res *sweep.Result) string {
	var b strings.Builder
	for _, m := range eval.MatricesFromSweep(res) {
		b.WriteString(eval.FormatMatrix(m))
		b.WriteString("\n")
	}
	return b.String()
}

// restrict returns res limited to the pairs whose ops are both in names.
func restrict(res *sweep.Result, names []string) *sweep.Result {
	in := map[string]bool{}
	for _, n := range names {
		in[n] = true
	}
	out := &sweep.Result{Spec: res.Spec}
	for _, p := range res.Pairs {
		if in[p.OpA] && in[p.OpB] {
			out.Pairs = append(out.Pairs, p)
		}
	}
	return out
}

// checkUniverse compares a full-universe sweep with its reference and
// returns one line per mismatch.
func (r *references) checkUniverse(res *sweep.Result, u universe) []string {
	var bad []string
	if got := res.TotalTests(); got != u.tests {
		bad = append(bad, fmt.Sprintf("%s: %d tests, want %d", u.spec, got, u.tests))
	}
	if d := diff(render(res), r.full[u.spec]); d != "" {
		bad = append(bad, fmt.Sprintf("%s: matrices differ from the reference: %s", u.spec, d))
	}
	if u.spec == "posix" {
		sp, err := spec.Lookup("posix")
		if err != nil {
			return append(bad, err.Error())
		}
		if d := diff(render(restrict(res, opNames(mustOpSet(sp, "fs")))), r.fs); d != "" {
			bad = append(bad, "posix: fs sub-block differs from matrix_fs.golden: "+d)
		}
	}
	return bad
}

// checkSubset compares a sweep of a subset of posix with the same
// subset of a verified full-universe result.
func checkSubset(res, full *sweep.Result, ops []string) []string {
	want := restrict(full, ops)
	var bad []string
	if got, n := res.TotalTests(), want.TotalTests(); got != n {
		bad = append(bad, fmt.Sprintf("posix %v: %d tests, want %d", ops, got, n))
	}
	if d := diff(render(res), render(want)); d != "" {
		bad = append(bad, fmt.Sprintf("posix %v: matrices differ from the full universe's: %s", ops, d))
	}
	return bad
}

// diff names the first line where got and want differ, or returns "".
func diff(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d is %q, want %q", i+1, gl, wl)
		}
	}
	return "trailing bytes differ"
}

func opNames(ops []*spec.Op) []string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.Name
	}
	return names
}

func mustOpSet(sp spec.Spec, sel string) []*spec.Op {
	ops, err := spec.OpSet(sp, sel)
	if err != nil {
		panic(err) // the registered specs always resolve their own named sets
	}
	return ops
}

// posixTests returns every posix pair's generated tests, keyed "opA/opB".
// It reads them through b, which a sweep without kernels fills with
// exactly the TESTGEN tier first (a no-op when b is already warm).
func posixTests(ctx context.Context, b sweep.Backend, workers int) (map[string][]kernel.TestCase, error) {
	sp, err := spec.Lookup("posix")
	if err != nil {
		return nil, err
	}
	cfg := sweep.Config{Spec: sp, Ops: mustOpSet(sp, "all"), Workers: workers, Cache: b}
	if _, err := sweep.RunContext(ctx, cfg); err != nil {
		return nil, err
	}
	out := map[string][]kernel.TestCase{}
	for _, p := range sweep.Pairs(cfg.Ops) {
		key := sweep.TestgenKey(sp.Name(), p[0].Name, p[1].Name, cfg.Analyzer, cfg.Testgen)
		tests, ok := b.GetTests(key)
		if !ok {
			return nil, fmt.Errorf("cross-check: no tests cached for %s/%s", p[0].Name, p[1].Name)
		}
		out[p[0].Name+"/"+p[1].Name] = tests
	}
	return out, nil
}

// crossCheckResult is the outcome of the independent verdict check.
type crossCheckResult struct {
	NoncommutingLinux int
	Mismatches        []string
	SampledGroups     int
}

// sv6SampleGroups is how many sv6 setup groups the cross-check replays on
// fresh kernels; each fresh sv6 build costs milliseconds, so a full pass
// would dwarf the run.
const sv6SampleGroups = 16

// crossCheck replays every posix test on fresh linux kernels through
// kernel.Check and compares the conflict counts with the sweep's cells;
// then it replays a seeded sample of sv6 setup groups the same way and
// compares each test's verdict with the one the Client's batched Check
// (the replayer CHECK uses) gives.
func crossCheck(ctx context.Context, tests map[string][]kernel.TestCase, pairs []sweep.PairResult, seed uint64) (crossCheckResult, error) {
	var out crossCheckResult
	sp, err := spec.Lookup("posix")
	if err != nil {
		return out, err
	}
	impls, err := eval.ImplSpecs(sp, "linux", "sv6")
	if err != nil {
		return out, err
	}
	linux, sv6 := impls[0].New, impls[1].New

	for _, p := range pairs {
		var cell *sweep.KernelCell
		for i := range p.Cells {
			if p.Cells[i].Kernel == "linux" {
				cell = &p.Cells[i]
			}
		}
		ts := tests[p.Pair()]
		conflicts := 0
		for _, tc := range ts {
			r, err := kernel.Check(linux, tc)
			if err != nil {
				return out, err
			}
			if !r.ConflictFree {
				conflicts++
			}
			if !r.Commuted {
				out.NoncommutingLinux++
			}
		}
		switch {
		case cell == nil:
			out.Mismatches = append(out.Mismatches, p.Pair()+": sweep has no linux cell")
		case cell.Total != len(ts) || cell.Conflicts != conflicts:
			out.Mismatches = append(out.Mismatches, fmt.Sprintf("%s on linux: sweep cell %d/%d, fresh kernels %d/%d",
				p.Pair(), cell.Conflicts, cell.Total, conflicts, len(ts)))
		}
	}

	groups := map[string][]kernel.TestCase{}
	for _, ts := range tests {
		for _, tc := range ts {
			id := tc.SetupID
			if id == "" {
				id = tc.Setup.Fingerprint()
			}
			groups[id] = append(groups[id], tc)
		}
	}
	ids := make([]string, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	rng := rand.New(rand.NewPCG(seed, 0x5ca1ab1e))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	ids = ids[:min(sv6SampleGroups, len(ids))]
	out.SampledGroups = len(ids)
	for _, id := range ids {
		g := groups[id]
		sum, err := commuter.Local().Check(ctx, "sv6", g)
		if err != nil {
			return out, err
		}
		for i, tc := range g {
			r, err := kernel.Check(sv6, tc)
			if err != nil {
				return out, err
			}
			if r.ConflictFree != sum.Verdicts[i].ConflictFree {
				out.Mismatches = append(out.Mismatches, fmt.Sprintf("sv6 test %s: replayed conflict-free=%v, fresh kernels %v",
					tc.ID, sum.Verdicts[i].ConflictFree, r.ConflictFree))
			}
		}
	}
	return out, nil
}
