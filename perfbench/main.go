// Command perfbench is the engine's benchmark. One run sets up one named
// workload from a seed, measures it for a fixed time, checks every answer
// and prints the metrics by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 a separate traced run drives the same statements through
// each layer's public functions and reports the per-layer metrics. See
// README.md for the workloads and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every row count: 1 from the command line, tiny in
	// the self-test.
	scale float64
	// dir holds the durable workload's data directories.
	dir string
}

// rows scales a full-size row count, keeping at least min rows.
func (o options) rows(full, min int) int {
	n := int(float64(full) * o.scale)
	if n < min {
		n = min
	}
	return n
}

// outcome is what a workload run reports.
type outcome struct {
	attempted int
	failed    int
	// errs describes the first few failed or wrong operations.
	errs    []string
	metrics map[string]float64
	// config records the machine, the workload's sizes and its policies.
	config map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, config: map[string]any{}}
}

// fail counts one failed, refused or wrong-answer operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *outcome) error{
	"paper-queries":  runPaper,
	"dashboard":      runDashboard,
	"ingest-durable": runIngest,
}

func main() {
	opt := options{scale: 1}
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload name: paper-queries, dashboard or ingest-durable")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the workload's data and statements are generated from")
	flag.Float64Var(&opt.seconds, "seconds", 10, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	opt.trace = trace == 1
	run, ok := workloads[opt.workload]
	if !ok {
		fatal(fmt.Errorf("unknown --workload %q (known: paper-queries, dashboard, ingest-durable)", opt.workload))
	}
	if opt.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	line, err := runWorkload(opt, run)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runWorkload runs one workload in a temporary directory under .bench_build
// (removed afterwards), prints the record and the metrics in readable form,
// and returns the final JSON line.
func runWorkload(opt options, run func(options, *outcome) error) (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	opt.dir = dir

	out := newOutcome()
	out.config["workload"] = opt.workload
	out.config["seed"] = opt.seed
	out.config["seconds"] = opt.seconds
	out.config["trace"] = opt.trace
	out.config["scale"] = opt.scale
	out.config["nproc"] = runtime.NumCPU()
	out.config["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.config["go_version"] = runtime.Version()
	out.config["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
	start := time.Now()
	if err := run(opt, out); err != nil {
		return "", fmt.Errorf("%s: %w", opt.workload, err)
	}
	out.config["wall_s"] = time.Since(start).Seconds()
	return report(opt, out)
}

// report prints the record and metrics, checks that every metric of the
// requested kind is present, and builds the result line.
func report(opt options, out *outcome) (string, error) {
	cfg, err := json.Marshal(out.config)
	if err != nil {
		return "", err
	}
	fmt.Printf("config %s\n", cfg)
	for _, e := range out.errs {
		fmt.Printf("error %s\n", e)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, m := range defs {
		v, ok := out.metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", opt.workload, m.Name)
		}
		fmt.Printf("metric %-34s %16.6g %s\n", m.Name, v, m.Unit)
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	var extra []string
	for name := range out.metrics {
		if find(endToEnd, name) == nil && find(perLayer, name) == nil {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return "", fmt.Errorf("%s: undeclared metrics %s", opt.workload, strings.Join(extra, ", "))
	}
	ratio := 0.0
	if out.attempted > 0 {
		ratio = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("error_ratio %.6g (%d failed of %d attempted)\n", ratio, out.failed, out.attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0 && out.attempted > 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	return string(line), err
}
