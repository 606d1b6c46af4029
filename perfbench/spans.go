package main

import (
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// tracedLayers fills in a traced repetition's per-layer metrics and
// writes its trace.
func tracedLayers(out *childResult, calls []call, rec *recorder, u0, u1 usage, tracePath string) error {
	spans := sweepSpans(calls, rec)
	out.Layers = sweepLayers(calls, rec, spans)
	goLayers(out.Layers, u0, u1, 1)
	return writeSpans(tracePath, spans)
}

// sweepLayers derives the per-layer metrics of one traced repetition
// from its sweep calls (their pair results carry phase times and solver
// counters), from what the wrappers recorded, and from its spans.
func sweepLayers(calls []call, rec *recorder, spans []span) map[string]float64 {
	l := map[string]float64{}
	var pairMS []float64
	var busy, capacity, replayed float64
	for _, c := range calls {
		capacity += ms(c.end.Sub(c.start)) * float64(c.workers)
		for _, p := range c.pairs {
			pairMS = append(pairMS, p.ElapsedMS)
			busy += p.ElapsedMS
			l["sym.sat_calls"] += float64(p.Solver.SatCalls)
			l["sym.budget_hits"] += float64(p.Solver.BudgetHits)
			l["sym.solver_ms"] += p.Phases.SolverMS
			l["analyzer.busy_ms"] += p.Phases.AnalyzeMS
			l["testgen.busy_ms"] += p.Phases.TestgenMS
			if p.Phases.AnalyzeMS > 0 {
				l["testgen.tests"] += float64(p.Tests)
			}
			l["kernel.check_busy_ms"] += p.Phases.CheckMS
			l["kernel.check_groups"] += float64(p.CheckGroups)
			for _, cell := range p.Cells {
				l["kernel.conflicting_tests."+cell.Kernel] += float64(cell.Conflicts)
				if p.Phases.CheckMS > 0 {
					replayed += float64(cell.Total)
				}
			}
		}
	}
	if l["sym.sat_calls"] > 0 {
		l["sym.us_per_sat_call"] = l["sym.solver_ms"] * 1000 / l["sym.sat_calls"]
	}
	if replayed > 0 {
		l["kernel.replay_us_per_test"] = l["kernel.check_busy_ms"] * 1000 / replayed
	}
	addPairStats(l, pairMS, busy, capacity)
	addCounts(l, rec, 1)
	addSelfTimes(l, spans, 1)
	return l
}

// addPairStats adds the pair-time metrics: the median and longest pair,
// and the share of the workers' capacity (wall time × workers) that pairs
// kept busy.
func addPairStats(l map[string]float64, pairMS []float64, busy, capacity float64) {
	l["sweep.pair_p50_ms"] = median(pairMS)
	if len(pairMS) > 0 {
		l["sweep.pair_max_ms"] = sortedCopy(pairMS)[len(pairMS)-1]
	}
	if capacity > 0 {
		l["sweep.pack_efficiency"] = busy / capacity
	}
}

// addCounts copies the wrappers' counters into l, divided over n
// repetitions, and derives the cache hit ratio.
func addCounts(l map[string]float64, rec *recorder, n float64) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for k, v := range rec.counts {
		if k == "sweep.cache.hits" || k == "sweep.cache.misses" {
			continue
		}
		l[k] += v / n
	}
	if gets := rec.counts["sweep.cache.hits"] + rec.counts["sweep.cache.misses"]; gets > 0 {
		l["sweep.cache.hit_ratio"] = rec.counts["sweep.cache.hits"] / gets
	}
}

// addSelfTimes adds each layer's self time, divided over n repetitions,
// and commuter.client_ms: the time callers of the HTTP handler waited
// beyond the handler's own span.
func addSelfTimes(l map[string]float64, spans []span, n float64) {
	for layer, ms := range selfTimes(spans) {
		if layer != "bench" && layer != "api" {
			l[layer+".self_ms"] = ms / n
		}
	}
	waited := map[int]bool{}
	for _, s := range spans {
		if s.Layer == "commuter" && s.Parent >= 0 && spans[s.Parent].Layer != "commuter" {
			waited[s.Parent] = true
			l["commuter.client_ms"] -= s.dur() / n
		}
	}
	for i := range waited {
		l["commuter.client_ms"] += spans[i].dur() / n
	}
}

// sweepSpans lays out a repetition's spans: the repetition, its sweep
// calls, their pairs at the offsets the results report, each pair's
// phases back to back ending at the pair's end (the results give their
// lengths, not their starts), and the wrapper spans under the innermost
// span that can have caused them.
func sweepSpans(calls []call, rec *recorder) []span {
	rec.mu.Lock()
	spans := append([]span(nil), rec.spans...)
	rec.mu.Unlock()
	nrec := len(spans)
	add := func(s span) int { spans = append(spans, s); return len(spans) - 1 }

	end := 0.0
	for _, c := range calls {
		end = max(end, rec.ms(c.end))
	}
	root := add(span{Layer: "bench", Name: "repetition", End: end, Parent: -1})
	var callIdx, pairIdx, checkIdx []int
	pairsOf := map[string][]int{} // cache key -> the pair spans it serves
	for _, c := range calls {
		ci := add(span{Layer: "sweep", Name: "sweep " + c.spec, Start: rec.ms(c.start), End: rec.ms(c.end), Parent: root})
		callIdx = append(callIdx, ci)
		for _, p := range c.pairs {
			start := rec.ms(c.start) + p.StartMS
			end := start + p.ElapsedMS
			pi := add(span{Layer: "sweep", Name: p.Pair(), Start: start, End: end, Parent: ci})
			pairIdx = append(pairIdx, pi)
			tg := sweep.TestgenKey(c.spec, p.OpA, p.OpB, c.cfg.Analyzer, c.cfg.Testgen)
			pairsOf[tg] = append(pairsOf[tg], pi)
			for _, cell := range p.Cells {
				ck := sweep.CheckKey(tg, cell.Kernel)
				pairsOf[ck] = append(pairsOf[ck], pi)
			}
			// The phases ran in this order and, but for the cache reads
			// before each, back to back to the pair's end.
			start = end - p.Phases.AnalyzeMS - p.Phases.TestgenMS - p.Phases.CheckMS
			for _, ph := range []struct {
				layer, name string
				ms          float64
			}{
				{"analyzer", "analyze", p.Phases.AnalyzeMS},
				{"testgen", "testgen", p.Phases.TestgenMS},
				{"kernel", "check", p.Phases.CheckMS},
			} {
				if ph.ms <= 0 {
					continue
				}
				i := add(span{Layer: ph.layer, Name: ph.name, Start: start, End: start + ph.ms, Parent: pi})
				if ph.layer == "kernel" {
					checkIdx = append(checkIdx, i)
				}
				start += ph.ms
			}
		}
	}

	for i := 0; i < nrec; i++ {
		s := spans[i]
		switch {
		case strings.HasPrefix(s.Name, "cache."):
			_ = attachNearest(spans, i, pairsOf[s.Key]) || attach(spans, i, callIdx)
		case strings.HasPrefix(s.Name, "build "):
			_ = attach(spans, i, checkIdx) || attach(spans, i, pairIdx) || attach(spans, i, callIdx)
		}
		if spans[i].Parent < 0 {
			spans[i].Parent = root
		}
	}
	return spans
}

// writeSpans writes spans as a Chrome trace-event file (chrome://tracing,
// ui.perfetto.dev). Each kind of span gets its own band of rows, and
// within a band overlapping spans are packed onto separate rows; a pair's
// phases share its row.
func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	band := func(s span) int {
		switch {
		case s.Layer == "bench":
			return 0
		case s.Layer == "api":
			return 100
		case s.Layer == "commuter":
			return 200
		case strings.HasPrefix(s.Name, "sweep "):
			return 300
		case strings.HasPrefix(s.Name, "cache."):
			return 500
		case strings.HasPrefix(s.Name, "build "):
			return 600
		}
		return 700 // pairs, with their phases on the same row
	}
	// Pack each band's rows; phases inherit their pair's row.
	rows := make([]int, len(spans))
	byBand := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 && band(s) == 700 && band(spans[s.Parent]) == 700 {
			continue
		}
		byBand[band(s)] = append(byBand[band(s)], i)
	}
	for b, idx := range byBand {
		start := make([]float64, len(idx))
		dur := make([]float64, len(idx))
		for j, i := range idx {
			start[j], dur[j] = spans[i].Start, spans[i].dur()
		}
		for j, lane := range obs.PackLanes(start, dur) {
			rows[idx[j]] = b + lane
		}
	}
	out := make([]obs.Span, len(spans))
	for i, s := range spans {
		row := rows[i]
		for p := s.Parent; row == 0 && p >= 0; p = spans[p].Parent {
			row = rows[p]
		}
		parent := ""
		if s.Parent >= 0 {
			parent = spans[s.Parent].Name
		}
		out[i] = obs.Span{Name: s.Name, Cat: s.Layer, StartUS: s.Start * 1e3, DurUS: s.dur() * 1e3,
			PID: 1, TID: row, Args: map[string]any{"layer": s.Layer, "parent": parent}}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(fh, out); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
