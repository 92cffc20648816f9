package main

import (
	"fmt"
	"math"
	"sort"

	"beamdyn/internal/obs"
)

// span is one closed span of a trace, linked to its children.
type span struct {
	name       string
	start, end float64 // seconds since the tracer started
	attrs      map[string]any
	children   []*span
}

func (s *span) dur() float64 { return s.end - s.start }

// child returns the first direct child named name (nil if none).
func (s *span) child(name string) *span {
	for _, c := range s.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// covered is the length of the union of the given intervals clipped to
// [lo, hi]: the part of a parent span that some child accounts for.
func covered(lo, hi float64, kids []*span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := math.Max(k.start, lo), math.Min(k.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB float64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = math.Max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// self is a span's self time: its duration minus the part of it that its
// children cover.
func (s *span) self() float64 { return s.dur() - covered(s.start, s.end, s.children) }

// spanTree links the span events of a trace into trees. A span event's TS
// is its end time and Dur its length. It fails if the sink evicted events,
// because self times over a truncated trace would be wrong.
func spanTree(sink *obs.MemorySink) ([]*span, error) {
	events := sink.Events()
	if uint64(len(events)) != sink.Total() {
		return nil, fmt.Errorf("trace sink kept %d of %d events; raise its Cap", len(events), sink.Total())
	}
	byID := make(map[string]*span)
	parents := make(map[*span]string)
	var all []*span
	for _, e := range events {
		if e.Kind != "span" {
			continue
		}
		s := &span{name: e.Name, start: e.TS - e.Dur, end: e.TS, attrs: e.Attrs}
		all = append(all, s)
		if e.Span != "" {
			byID[e.Span] = s
		}
		parents[s] = e.Parent
	}
	var roots []*span
	for _, s := range all {
		if p := byID[parents[s]]; p != nil {
			p.children = append(p.children, s)
		} else {
			roots = append(roots, s)
		}
	}
	return roots, nil
}

// walk calls fn on s and every descendant.
func walk(s *span, fn func(*span)) {
	fn(s)
	for _, c := range s.children {
		walk(c, fn)
	}
}

// find returns every span named name in the trees under roots.
func find(roots []*span, name string) []*span {
	var out []*span
	for _, r := range roots {
		walk(r, func(s *span) {
			if s.name == name {
				out = append(out, s)
			}
		})
	}
	return out
}

// attrFloat reads a numeric span attribute (0 when absent).
func attrFloat(s *span, key string) float64 {
	switch v := s.attrs[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case uint64:
		return float64(v)
	}
	return 0
}

// durations returns the durations of spans in milliseconds.
func durationsMs(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() * 1e3
	}
	return out
}

// The four stages of Simulation.Advance, in loop order.
var stageSpans = []string{"advance/deposit", "advance/potentials", "advance/forces", "advance/push"}

// Kernel and solver sub-phases of advance/potentials, by the per-layer
// metric they add to. Heuristic-RP's reuse/refine launches play the
// fixed/adaptive roles.
var potentialPhases = map[string]string{
	"predictive/predict":  "kernels.predict_ms",
	"predictive/cluster":  "kernels.cluster_ms",
	"predictive/train":    "kernels.train_ms",
	"predictive/verify":   "kernels.fixed_ms",
	"twophase/uniform":    "kernels.fixed_ms",
	"heuristic/reuse":     "kernels.fixed_ms",
	"predictive/fallback": "kernels.adaptive_ms",
	"twophase/refine":     "kernels.adaptive_ms",
	"heuristic/refine":    "kernels.adaptive_ms",
	"reference/solve":     "retard.solve_ms",
}

// layerTimes is the per-step breakdown of a set of traced steps.
type layerTimes struct {
	steps int
	// perStep holds each layer's mean milliseconds per step.
	perStep map[string]float64
	// memo and tile are the reference solver's cache counters summed over
	// the steps: reuse/probe and hits/solves.
	memoReuse, memoProbe, tileHits, tileSolves float64
	// sumBad marks, per root, a step whose stage times plus unattributed
	// time did not add up to the step's time.
	sumBad []bool
}

// layerSumTol is the absolute slack of the layer-sum check per step: span
// end stamps are taken a few hundred nanoseconds after the duration is
// read, so adjacent spans can appear to overlap by that much.
const layerSumTol = 50e-6

// breakdown attributes each step's time to layers. A root is either the
// benchmark's own span around Simulation.Advance (the program's advance
// span is then its child) or the program's advance span itself.
//
// core.advance_ms is the root's duration. The stage metrics are the
// inclusive durations of advance/{deposit,potentials,forces,push}, and
// core.unattributed_ms is the part of the root no stage covers, taken from
// the union of the stage intervals. The layer-sum check asserts that the
// stages plus unattributed time add up to the root: it fails when stage
// spans overlap or fall outside the step.
func breakdown(roots []*span) layerTimes {
	lt := layerTimes{steps: len(roots), perStep: map[string]float64{}}
	add := func(k string, ms float64) { lt.perStep[k] += ms }
	for _, root := range roots {
		adv := root
		if root.name != "advance" {
			adv = root.child("advance")
		}
		var stages []*span
		var stageSum float64
		if adv != nil {
			for _, name := range stageSpans {
				for _, c := range adv.children {
					if c.name == name {
						stages = append(stages, c)
						stageSum += c.dur()
					}
				}
			}
		}
		unattributed := root.dur() - covered(root.start, root.end, stages)
		lt.sumBad = append(lt.sumBad, math.Abs(stageSum+unattributed-root.dur()) > layerSumTol+1e-4*root.dur())
		add("core.advance_ms", root.dur()*1e3)
		add("core.unattributed_ms", unattributed*1e3)
		for _, st := range stages {
			switch st.name {
			case "advance/deposit":
				add("grid.deposit_ms", st.dur()*1e3)
			case "advance/potentials":
				add("core.potentials_ms", st.dur()*1e3)
				add("core.potentials_self_ms", st.self()*1e3)
				for _, ph := range st.children {
					walk(ph, func(s *span) {
						if m, ok := potentialPhases[s.name]; ok {
							add(m, s.dur()*1e3)
						}
						if s.name == "reference/solve" {
							lt.memoReuse += attrFloat(s, "rp_memo_reuse")
							lt.memoProbe += attrFloat(s, "rp_memo_probe")
							lt.tileHits += attrFloat(s, "rp_tile_hits")
							lt.tileSolves += attrFloat(s, "rp_tile_solves")
						}
					})
				}
			case "advance/forces":
				add("core.forces_ms", st.dur()*1e3)
			case "advance/push":
				add("particles.push_ms", st.dur()*1e3)
			}
		}
	}
	if lt.steps > 0 {
		for k := range lt.perStep {
			lt.perStep[k] /= float64(lt.steps)
		}
	}
	return lt
}
