// Command perfbench is the repository benchmark. It runs one workload of
// the beam-dynamics loop (deposit -> retarded potentials -> forces ->
// push) or of the job service, checks its outputs, and prints its metrics
// by name with their units:
//
//	bash perfbench/run.sh --workload predictive-128 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it makes an untraced pass and reports the end-to-end
// metrics; with --trace 1 it interleaves an untraced and a traced pass of
// the same workload and reports the per-layer metrics, read from the spans
// the program emits into an in-memory sink. The workloads, metrics and
// bounds are declared in BENCHMARK.json at the repository root.
//
// A human-readable report goes to standard error. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --record appends the full report, with parameters, machine
// and layer shares, as one JSON line to a file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, gated by BENCHMARK.json.
// Every workload reports each of them. The times are scaled to the
// calibration kernel's reference speed (see calibrate.go).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"step_ms_p50", "ms"},
	{"steps_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// reportOnly are end-to-end metrics that are printed and recorded but not
// gated: the raw wall times behind the scaled ones and the calibration
// kernel's time, and metrics that apply to some workloads only or can be
// 0 — job latency and throughput (jobs-catalog), the simulated K40 time
// and the accuracy against the reference solver (kernel workloads), and
// the failure share (also carried by the result's attempted/failed
// counts).
var reportOnly = []metricSpec{
	{"setup_wall_s", "s"},
	{"step_wall_ms_p50", "ms"},
	{"cal_ms_p50", "ms"},
	{"job_ms_p50", "ms"},
	{"jobs_per_s", "1/s"},
	{"sim_gpu_ms_per_step", "ms"},
	{"rp_rel_err_max", "ratio"},
	{"rp_disputed_points", "count"},
	{"rp_conv_err_max", "ratio"},
	{"rp_ref_conv_err_max", "ratio"},
	{"failed_ops_frac", "ratio"},
}

// perLayer are the metrics of a traced run. Every workload reports each of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"core.advance_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"grid.deposit_ms", "ms"},
	{"core.potentials_ms", "ms"},
	{"core.potentials_self_ms", "ms"},
	{"core.forces_ms", "ms"},
	{"particles.push_ms", "ms"},
	{"retard.solve_ms", "ms"},
	{"retard.memo_hit_rate", "ratio"},
	{"retard.tile_hit_rate", "ratio"},
	{"kernels.predict_ms", "ms"},
	{"kernels.cluster_ms", "ms"},
	{"kernels.train_ms", "ms"},
	{"kernels.fixed_ms", "ms"},
	{"kernels.adaptive_ms", "ms"},
	{"kernels.fallback_entries", "count"},
	{"kernels.fallback_rate", "ratio"},
	{"kernels.launches", "count"},
	{"gpusim.host_ns_per_warp_inst", "ns"},
	{"gpusim.warp_insts", "count"},
	{"gpusim.sort_fallbacks", "count"},
	{"gpusim.mru_hits", "count"},
	{"gpusim.line_short_circuits", "count"},
	{"gpusim.fixed_sim_ms", "ms"},
	{"gpusim.adaptive_sim_ms", "ms"},
	{"gpusim.wee", "ratio"},
	{"gpusim.gle", "ratio"},
	{"gpusim.l1_hit_rate", "ratio"},
	{"gpusim.l2_hit_rate", "ratio"},
	{"gpusim.dram_mb", "MB"},
	{"gpusim.gflops", "GFLOP/s"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.run_ms_p50", "ms"},
	{"jobs.digest_mismatch", "count"},
	{"core.checkpoint_save_ms", "ms"},
	{"core.checkpoint_kb", "KiB"},
	{"fleet.band_ms_p50", "ms"},
	{"runtime.allocs_per_step", "count"},
	{"runtime.alloc_mb_per_step", "MB"},
	{"runtime.gc_per_step", "count"},
	{"obs.trace_overhead_frac", "ratio"},
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// toy shrinks every workload to a size that runs in well under a
	// second per step (the benchmark's own tests use it).
	toy bool
}

// value is one reported metric with the number of samples behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// report collects the outcome of one run.
type report struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Params    map[string]any     `json:"params"`
	Machine   map[string]any     `json:"machine"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  map[string]int     `json:"failures,omitempty"`
	Metrics   map[string]value   `json:"metrics"`
	Shares    map[string]float64 `json:"layer_shares,omitempty"`
}

func newReport(w *workload, o options) *report {
	return &report{
		Workload: w.name, Why: w.why, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Params:   map[string]any{},
		Machine:  machine(),
		Failures: map[string]int{},
		Metrics:  map[string]value{},
	}
}

// set records metric name (its unit comes from the metric tables).
func (r *report) set(name string, v float64, n int) {
	r.Metrics[name] = value{Value: v, Unit: unitOf(name), N: n}
}

// op counts one operation (a step or a job) and the checks it failed.
func (r *report) op(failedChecks ...string) {
	r.Attempted++
	if len(failedChecks) == 0 {
		return
	}
	r.Failed++
	for _, c := range failedChecks {
		r.Failures[c]++
	}
}

func unitOf(name string) string {
	for _, tab := range [][]metricSpec{endToEnd, reportOnly, perLayer} {
		for _, m := range tab {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: metric " + name + " is in no table")
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result selects the gated metrics of the run's mode. A run is correct
// when no operation failed and every gated metric is present and finite.
func (r *report) result() result {
	tab := endToEnd
	if r.Trace {
		tab = perLayer
	}
	out := result{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]value{}}
	for _, m := range tab {
		v, ok := r.Metrics[m.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out.Correct = false
			continue
		}
		out.Metrics[m.name] = value{Value: v.Value, Unit: v.Unit}
	}
	return out
}

// machine describes where the run happened.
func machine() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel is the processor name from /proc/cpuinfo ("" when unknown).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// print writes the human-readable report.
func (r *report) print(f *os.File) {
	mode := "untraced pass: end-to-end metrics"
	if r.Trace {
		mode = "untraced + traced passes: per-layer metrics"
	}
	fmt.Fprintf(f, "perfbench %s  seed=%d  seconds=%g  (%s)\n", r.Workload, r.Seed, r.Seconds, mode)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := r.Metrics[k]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Fprintf(f, "  %-30s %14.6g %-8s %s\n", k, v.Value, v.Unit, n)
	}
	if len(r.Shares) > 0 {
		keys := make([]string, 0, len(r.Shares))
		for k := range r.Shares {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return r.Shares[keys[i]] > r.Shares[keys[j]] })
		fmt.Fprintf(f, "  layer shares of core.advance_ms:")
		for _, k := range keys {
			fmt.Fprintf(f, " %s=%.1f%%", k, 100*r.Shares[k])
		}
		fmt.Fprintln(f)
	}
	fmt.Fprintf(f, "  operations: %d attempted, %d failed", r.Attempted, r.Failed)
	if len(r.Failures) > 0 {
		var parts []string
		for k, n := range r.Failures {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n))
		}
		sort.Strings(parts)
		fmt.Fprintf(f, " (failed checks: %s)", strings.Join(parts, ", "))
	}
	fmt.Fprintln(f)
}

func main() {
	var o options
	var record string
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the measured part of the run lasts")
	traceN := flag.Int("trace", 0, "0: untraced end-to-end pass; 1: traced per-layer pass")
	flag.StringVar(&record, "record", "", "append the full report as one JSON line to this file")
	flag.Parse()
	o.trace = *traceN == 1
	w := lookup(o.workload)
	if w == nil || flag.NArg() > 0 || (*traceN != 0 && *traceN != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	r, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	r.print(os.Stderr)
	if record != "" {
		r.Machine["cpu"] = cpuModel()
		if err := appendRecord(record, r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one pass of workload w.
func run(w *workload, o options) (*report, error) {
	r := newReport(w, o)
	var err error
	if o.trace {
		err = w.perLayer(o, r)
	} else {
		err = w.endToEnd(o, r)
	}
	if err != nil {
		return nil, err
	}
	r.set("failed_ops_frac", ratio(float64(r.Failed), float64(r.Attempted)), r.Attempted)
	return r, nil
}

func appendRecord(path string, r *report) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
