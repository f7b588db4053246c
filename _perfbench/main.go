// Command perfbench is sdcmd's end-to-end and per-layer benchmark. It
// drives one workload through the public functions of the md, force,
// strategy, neighbor, core, reorder, guard, serve and store packages,
// checks that the outputs are correct, and prints one JSON result as
// the last line of standard output.
//
//	perfbench --workload md-paper --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run records spans around every call it makes into a
// layer and the result carries the per-layer metrics, while the full
// per-layer table, the self-time summary and the span file are written
// as well. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness gate; any failed check fails the run.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	checks            []check
	metrics           map[string]metric // end-to-end, or per-layer when traced
	notes             map[string]string // stated alongside metrics (tail percentile, …)
	spans             []Span
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(k, v string) {
	if o.notes == nil {
		o.notes = map[string]string{}
	}
	o.notes[k] = v
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// options are the command-line arguments shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// outDir holds traces and scratch state, relative to the checkout root
// the benchmark runs from.
const outDir = ".bench_out"

type workloadFunc func(o options, tr *Tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"md-paper":   func(o options, tr *Tracer) (*outcome, error) { return runMD(mdPaper, o, tr) },
	"md-rebuild": func(o options, tr *Tracer) (*outcome, error) { return runMD(mdRebuild, o, tr) },
	"serve-mix":  runServe,
}

// endToEnd and perLayer are the metric names the final JSON line
// carries (they mirror BENCHMARK.json; the package test keeps the two
// in step). Every workload reports every name.
var endToEnd = []string{
	"setup_s", "atom_steps_per_s", "live_heap_mb", "cpu_ms_per_job", "job_latency_ms_p50",
}

// reported are end-to-end metrics every run prints but that carry no
// bound: on the 2-vCPU host their spread between runs was too wide for
// any allowed bound (see README.md).
var reported = []string{"job_latency_ms_tail", "hit_latency_ms_p50"}

var perLayer = []string{
	"force.density_ns_per_pair", "force.force_ns_per_pair", "force.embed_ns_per_atom",
	"neighbor.build_ms", "neighbor.ns_per_atom", "neighbor.pairs",
	"md.step_ms_p50", "md.outside_force_frac",
	"guard.overhead_frac",
	"store.put_ms_p50", "store.get_ms_p50", "store.entry_kb",
	"calib.serial_force_ns_per_pair",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 && args[0] == "--generate" {
		if err := generate(os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "md-paper | md-rebuild | serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload md-paper|md-rebuild|serve-mix, --seconds > 0, --trace 0|1\n")
		return 2
	}
	o.trace = trace == 1

	rc := newRunContext()
	calib, err := calibrate()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: calibration: %v\n", err)
		return 1
	}
	rc.CalibNS = calib

	var tr *Tracer
	if o.trace {
		tr = newTracer()
	}
	out, err := wl(o, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	rc.finish()
	if o.trace {
		out.set("calib.serial_force_ns_per_pair", calib, "ns")
	}

	ctxLine, _ := json.Marshal(rc)
	fmt.Fprintf(stdout, "context %s\n", ctxLine)
	correct := true
	for _, c := range out.checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAIL"
			correct = false
		}
		fmt.Fprintf(stdout, "check %-28s %-4s %s\n", c.Name, verdict, c.Detail)
	}
	for _, k := range sortedKeys(out.notes) {
		fmt.Fprintf(stdout, "note %s: %s\n", k, out.notes[k])
	}

	names := endToEnd
	if !o.trace {
		for _, k := range reported {
			if m, ok := out.metrics[k]; ok {
				fmt.Fprintf(stdout, "unbounded %-22s %12.6g %s\n", k, m.Value, m.Unit)
			}
		}
	}
	if o.trace {
		names = perLayer
		all := map[string]float64{}
		for _, k := range sortedKeys(out.metrics) {
			if slices.Contains(endToEnd, k) || slices.Contains(reported, k) {
				continue // computed on the way; measured untraced
			}
			m := out.metrics[k]
			all[k] = m.Value
			fmt.Fprintf(stdout, "layer %-34s %16.6g %s\n", k, m.Value, m.Unit)
		}
		self := selfTimes(out.spans)
		printSelfTimes(stdout, self)
		path, err := writeTrace(outDir, traceFile{
			Workload: o.workload, Seed: o.seed, Context: rc,
			Layers: all, Notes: out.notes, Self: self, Spans: out.spans,
		})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s\n", path)
	}

	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: correct && out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := out.metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s missing or not finite (%v)\n", o.workload, n, m.Value)
			return 1
		}
		final.Metrics[n] = m
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !final.Correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
