// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one of three workloads in-process against the
// simulator and serving packages and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (see NOTES.md); with
// -trace 1 the run records spans around calls into each layer, writes them
// to <workdir>/spans-<workload>.json, and reports the per-layer set.
// A human-readable report (host fingerprint, every metric with its unit and
// sample counts, and the correctness verdict) goes to standard error.
//
// Usage:
//
//	perfbench -workload sim-seq|sweep-batch|serve-mix -seed N -seconds S -trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line; field order is the contract's.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's outcome: metrics, the sample counts behind
// them, and every failed check.
type report struct {
	workload  string
	metrics   map[string]metric
	samples   map[string]int
	notes     []string
	attempted int
	failed    int
	checks    []string // failed correctness checks
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records a failed correctness check; a run with any is not correct.
func (r *report) fail(format string, args ...any) {
	if len(r.checks) < 20 {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
	if len(r.checks) == 20 {
		r.checks = append(r.checks, "(further failures elided)")
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the human-readable report.
func (r *report) write(w io.Writer, host hostInfo) {
	fmt.Fprintf(w, "perfbench %s — %s\n", r.workload, host)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("  %-34s %14.6g %-12s", n, m.Value, m.Unit)
		if c, ok := r.samples[n]; ok {
			line += fmt.Sprintf(" n=%d", c)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	verdict := "correct"
	if len(r.checks) > 0 {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "  verdict: %s (attempted %d, failed %d)\n", verdict, r.attempted, r.failed)
	for _, c := range r.checks {
		fmt.Fprintf(w, "  check failed: %s\n", c)
	}
}

// env is what every workload gets: its seed, measured duration, a private
// scratch directory inside the checkout, the report, and the host-speed
// monitor its metrics are scaled by.
type env struct {
	seed    int64
	seconds time.Duration
	workdir string
	rep     *report
	ref     *refMonitor
}

// workloadFunc runs one workload untraced (traced=false) or traced.
type workloadFunc func(ctx context.Context, e *env, traced bool) error

var workloads = map[string]workloadFunc{
	"sim-seq":     runSimSeq,
	"sweep-batch": runSweepBatch,
	"serve-mix":   runServeMix,
}

func main() { os.Exit(run()) }

// run executes one benchmark invocation and returns the exit code.
func run() int {
	var (
		name    = flag.String("workload", "", "sim-seq, sweep-batch or serve-mix")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory (emptied afterwards; spans files are kept)")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workdir: dir,
		rep: newReport(*name), ref: startRefMonitor()}
	heap := startHeapSampler()
	runErr := fn(context.Background(), e, *traced == 1)
	peak := heap.stop()
	e.ref.close()
	if *traced == 0 {
		e.rep.set("heap_peak_mb", float64(peak)/(1<<20), "MB")
		e.rep.note("reference kernel: %.4f ref-s per CPU-second over the run", e.ref.speed())
	}
	e.rep.write(os.Stderr, fingerprint())
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		return 1
	}
	if *traced == 1 {
		keep := filepath.Join(*workdir, "spans-"+*name+".json")
		if err := os.Rename(filepath.Join(dir, "spans.json"), keep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "  spans: %s\n", keep)
	}
	out, err := json.Marshal(result{
		Correct:   len(e.rep.checks) == 0,
		Attempted: e.rep.attempted,
		Failed:    e.rep.failed,
		Metrics:   e.rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
