package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the table must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTable checks that BENCHMARK.json declares exactly
// the workloads and metrics this program reports, with the same units,
// directions and bounds.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, the program runs %d", names, len(workloads))
	}
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the table %d", kind, len(got), len(want))
		}
		for _, g := range got {
			w := find(want, g.Name)
			switch {
			case w == nil:
				t.Errorf("%s: BENCHMARK.json metric %s is not in the table", kind, g.Name)
			case g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound:
				t.Errorf("%s: %s is %s/%s/%v in BENCHMARK.json, %s/%s/%v in the table",
					kind, g.Name, g.Unit, g.Better, g.Bound, w.Unit, w.Better, w.Bound)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestReadmeLayerMap checks that the per-layer table of README.md, which
// maps each metric to its module and the end-to-end metric it should move,
// names every per-layer metric once, with the workloads the program's table
// gives it.
func TestReadmeLayerMap(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(raw)
	if i := strings.Index(section, "\n## Per-layer metrics"); i >= 0 {
		section = section[i+1:]
	}
	if i := strings.Index(section[1:], "\n## "); i >= 0 {
		section = section[:i+1]
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		on := strings.TrimSpace(cells[4])
		for _, pattern := range backticked(cells[1]) {
			for _, name := range expandBraces(pattern) {
				m := find(perLayer, name)
				switch {
				case m == nil:
					t.Errorf("README.md names %s, which the program does not report", name)
				case seen[name]:
					t.Errorf("README.md names %s twice", name)
				case m.On != on:
					t.Errorf("README.md gives %s the workloads %q, the program %q", name, on, m.On)
				}
				seen[name] = true
			}
		}
	}
	for _, m := range perLayer {
		if !seen[m.Name] {
			t.Errorf("README.md's per-layer table lacks %s", m.Name)
		}
	}
}

// backticked returns the `quoted` parts of s.
func backticked(s string) []string {
	parts := strings.Split(s, "`")
	var out []string
	for i := 1; i < len(parts); i += 2 {
		out = append(out, parts[i])
	}
	return out
}

// expandBraces expands every {a,b} group of a metric name pattern.
func expandBraces(p string) []string {
	lo := strings.Index(p, "{")
	if lo < 0 {
		return []string{p}
	}
	hi := lo + strings.Index(p[lo:], "}")
	var out []string
	for _, alt := range strings.Split(p[lo+1:hi], ",") {
		out = append(out, expandBraces(p[:lo]+alt+p[hi+1:])...)
	}
	return out
}

// gives reports whether workload gives m's layer its work.
func gives(m metric, workload string) bool {
	if m.On == "all" {
		return true
	}
	for _, w := range strings.Split(m.On, ", ") {
		if w == workload {
			return true
		}
	}
	return false
}

// result is the final line of a run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestWorkloadsAtTinyScale runs every workload, untraced and traced, on the
// default seed and a second one, and checks that the oracles pass, every
// declared metric is emitted with its unit, and every per-layer metric
// reads nonzero on the workloads that give its layer work.
func TestWorkloadsAtTinyScale(t *testing.T) {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []bool{false, true} {
				opt := options{workload: name, seed: seed, seconds: 0.3, trace: trace, scale: 0.01}
				line, err := runWorkload(opt, workloads[name])
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
				}
				var res result
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatalf("%s: result line %q: %v", name, line, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d trace %v: correct=%v failed=%d attempted=%d", name, seed, trace, res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%s trace %v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s trace %v: metric %s missing or not in %s", name, trace, m.Name, m.Unit)
					}
					// On one processor paper-queries runs serially, without
					// an Exchange. TestIngestColdReads checks the cold reads.
					serial := m.Name == "exec.exchange.self_ms" && runtime.NumCPU() < 2
					if trace && gives(m, name) && !serial && m.Name != coldRows && got.Value == 0 {
						t.Errorf("%s seed %d: per-layer metric %s reads 0", name, seed, m.Name)
					}
				}
				if !trace && res.Metrics["throughput_stmt_s"].Value <= 0 {
					t.Errorf("%s: no statements measured", name)
				}
			}
		}
	}
}

const coldRows = "storage.cold_decoded_rows"

// TestIngestColdReads checks that ingest-durable's selective reads decode
// evicted columns from their segments. A read takes that path only when it
// covers under a quarter of its partition, and a partition of the tiny
// table is a single storage block, so this runs one traced round at 30 %
// scale.
func TestIngestColdReads(t *testing.T) {
	opt := options{workload: "ingest-durable", seed: 1, seconds: 0.1, trace: true, scale: 0.3}
	line, err := runWorkload(opt, workloads["ingest-durable"])
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if !res.Correct || res.Metrics[coldRows].Value == 0 {
		t.Errorf("correct=%v failed=%d, %s=%v", res.Correct, res.Failed, coldRows, res.Metrics[coldRows].Value)
	}
}
