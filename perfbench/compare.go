package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// A saved run is the benchmark's standard output: compare reads its stamp
// line and its last line.
type savedRun struct {
	path string
	st   stamp
	out  outcome
}

func readRun(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	r := savedRun{path: path}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var last string
	gotStamp := false
	for sc.Scan() {
		line := sc.Text()
		if s, ok := strings.CutPrefix(line, "stamp: "); ok {
			gotStamp = json.Unmarshal([]byte(s), &r.st) == nil
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if !gotStamp {
		return r, fmt.Errorf("%s: no stamp line", path)
	}
	if err := json.Unmarshal([]byte(last), &r.out); err != nil {
		return r, fmt.Errorf("%s: last line is not the outcome: %w", path, err)
	}
	return r, nil
}

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// comparable explains why two sets of runs cannot be compared, or returns
// "". Every stamp field must agree except the seed, and both sets must
// have run the same seeds: a timing taken at another CPU count, worker
// count, Go version, run length or input is not evidence about a change.
func comparable(base, cand []savedRun) string {
	norm := func(s stamp) stamp { s.Seed = 0; return s }
	for _, r := range append(append([]savedRun(nil), base...), cand...) {
		if norm(r.st) != norm(base[0].st) {
			a, _ := json.Marshal(base[0].st)
			b, _ := json.Marshal(r.st)
			return fmt.Sprintf("%s was measured under %s, %s under %s", base[0].path, a, r.path, b)
		}
	}
	seeds := func(rs []savedRun) []uint64 {
		var s []uint64
		for _, r := range rs {
			s = append(s, r.st.Seed)
		}
		slices.Sort(s)
		return s
	}
	if a, b := seeds(base), seeds(cand); !slices.Equal(a, b) {
		return fmt.Sprintf("the sets ran different seeds: %v against %v", a, b)
	}
	return ""
}

// compareMain compares two sets of saved runs of one workload:
//
//	perfbench compare [-bench BENCHMARK.json] base1.out base2.out ... -- new1.out ...
//
// It refuses when the stamps differ, then reports each end-to-end
// metric's medians and spreads and flags every metric whose new median is
// worse than the base median by more than its bound. It exits 1 on a
// regression or a failed run, 2 when it cannot compare.
func compareMain(args []string, w io.Writer) int {
	benchPath := "BENCHMARK.json"
	if len(args) >= 2 && args[0] == "-bench" {
		benchPath, args = args[1], args[2:]
	}
	sep := slices.Index(args, "--")
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(w, "usage: perfbench compare [-bench BENCHMARK.json] BASE... -- NEW...")
		return 2
	}
	data, err := os.ReadFile(filepath.Clean(benchPath))
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	var bench struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	load := func(paths []string) ([]savedRun, error) {
		var rs []savedRun
		for _, p := range paths {
			r, err := readRun(p)
			if err != nil {
				return nil, err
			}
			rs = append(rs, r)
		}
		return rs, nil
	}
	base, err := load(args[:sep])
	if err == nil {
		var cand []savedRun
		if cand, err = load(args[sep+1:]); err == nil {
			return compareRuns(w, bench.EndToEnd, base, cand)
		}
	}
	fmt.Fprintln(w, "compare:", err)
	return 2
}

func compareRuns(w io.Writer, bounds []bound, base, cand []savedRun) int {
	if why := comparable(base, cand); why != "" {
		fmt.Fprintln(w, "refusing to compare timings:", why)
		return 2
	}
	status := 0
	for _, r := range append(append([]savedRun(nil), base...), cand...) {
		if !r.out.Correct || r.out.Failed > 0 {
			fmt.Fprintf(w, "%s: run failed (%d of %d operations)\n", r.path, r.out.Failed, r.out.Attempted)
			status = 1
		}
	}
	values := func(rs []savedRun, name string) []float64 {
		var xs []float64
		for _, r := range rs {
			if v, ok := r.out.Metrics[name]; ok {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	sort.SliceStable(bounds, func(i, j int) bool { return bounds[i].Name < bounds[j].Name })
	fmt.Fprintf(w, "%s, %d runs against %d\n", base[0].st.Workload, len(base), len(cand))
	for _, b := range bounds {
		bv, cv := values(base, b.Name), values(cand, b.Name)
		if len(bv) == 0 || len(cv) == 0 {
			continue
		}
		bm, cm := median(bv), median(cv)
		change := (cm - bm) / bm
		if b.Better == "higher" {
			change = -change
		}
		verdict := "within bound"
		if change > b.Bound {
			verdict = "WORSE beyond bound"
			status = 1
		}
		fmt.Fprintf(w, "  %-16s base %10.4f (spread %5.1f%%)  new %10.4f (spread %5.1f%%)  worse by %+6.1f%% of bound %.0f%%: %s\n",
			b.Name, bm, 100*spread(bv), cm, 100*spread(cv), 100*change, 100*b.Bound, verdict)
	}
	return status
}
