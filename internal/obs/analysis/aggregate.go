package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"beamdyn/internal/obs"
)

// SpanStats aggregates every span of one name.
type SpanStats struct {
	Name     string
	Count    int
	TotalSec float64
	MinSec   float64
	MaxSec   float64
	// Durs holds every span duration, sorted ascending, so Quantile is
	// exact rather than a histogram estimate.
	Durs []float64
}

// Mean returns the mean span duration.
func (s SpanStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.TotalSec / float64(s.Count)
}

// Quantile returns the exact q-quantile (0 <= q <= 1) span duration by
// linear interpolation between the two closest order statistics (the
// "type 7" estimator of R and NumPy's default), so it always lies within
// [MinSec, MaxSec]. It is 0 when there are no spans.
func (s SpanStats) Quantile(q float64) float64 {
	n := len(s.Durs)
	if n == 0 {
		return 0
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return s.Durs[n-1]
	}
	return s.Durs[lo] + (h-float64(lo))*(s.Durs[lo+1]-s.Durs[lo])
}

// Aggregate groups span events by name, accumulating count, total, min,
// max and the sorted durations. Results are sorted by name. Point events
// (kind "event") carry no duration and are ignored.
func Aggregate(events []obs.Event) []SpanStats {
	byName := make(map[string]*SpanStats)
	for _, e := range events {
		if e.Kind != "span" {
			continue
		}
		st, ok := byName[e.Name]
		if !ok {
			st = &SpanStats{Name: e.Name, MinSec: math.Inf(1)}
			byName[e.Name] = st
		}
		st.Count++
		st.TotalSec += e.Dur
		st.MinSec = math.Min(st.MinSec, e.Dur)
		st.MaxSec = math.Max(st.MaxSec, e.Dur)
		st.Durs = append(st.Durs, e.Dur)
	}
	out := make([]SpanStats, 0, len(byName))
	for _, st := range byName {
		sort.Float64s(st.Durs)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SummaryTable renders the aggregate as an aligned table (durations in
// milliseconds).
func SummaryTable(stats []SpanStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %7s %12s %10s %10s %10s %10s %10s\n",
		"span", "count", "total_ms", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-28s %7d %12.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			s.Name, s.Count, s.TotalSec*1e3, s.Mean()*1e3,
			s.Quantile(0.5)*1e3, s.Quantile(0.95)*1e3, s.Quantile(0.99)*1e3, s.MaxSec*1e3)
	}
	return b.String()
}

// TimelineRow is one span occurrence placed on the run's time axis.
type TimelineRow struct {
	Step     int
	Name     string
	StartSec float64 // span start, seconds since the tracer was created
	DurSec   float64
}

// Timeline lists every span ordered by step, then start time — the flat
// form of a per-step Gantt view. Span events are timestamped at End, so
// the start is recovered as TS - Dur.
func Timeline(events []obs.Event) []TimelineRow {
	var rows []TimelineRow
	for _, e := range events {
		if e.Kind != "span" {
			continue
		}
		rows = append(rows, TimelineRow{
			Step:     e.Step,
			Name:     e.Name,
			StartSec: e.TS - e.Dur,
			DurSec:   e.Dur,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Step != rows[j].Step {
			return rows[i].Step < rows[j].Step
		}
		return rows[i].StartSec < rows[j].StartSec
	})
	return rows
}

// TimelineTable renders the timeline with a proportional bar per span
// (scaled to the longest span in the trace).
func TimelineTable(rows []TimelineRow) string {
	var maxDur float64
	for _, r := range rows {
		if r.DurSec > maxDur {
			maxDur = r.DurSec
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %-28s %12s %10s\n", "step", "span", "start_s", "dur_ms")
	lastStep, first := 0, true
	for _, r := range rows {
		if first || r.Step != lastStep {
			if !first {
				b.WriteByte('\n')
			}
			lastStep, first = r.Step, false
		}
		bar := ""
		if maxDur > 0 {
			n := int(math.Round(24 * r.DurSec / maxDur))
			bar = strings.Repeat("#", n)
		}
		fmt.Fprintf(&b, "%5d %-28s %12.6f %10.3f %s\n", r.Step, r.Name, r.StartSec, r.DurSec*1e3, bar)
	}
	return b.String()
}
