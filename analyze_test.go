package patchindex

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"patchindex/internal/obs"
)

// loadAnalyzeTable creates a small table with a nearly unique column (two
// duplicated values) and a NUC PatchIndex on it.
func loadAnalyzeTable(t *testing.T, e *Engine) {
	t.Helper()
	mustExec(t, e, "CREATE TABLE ev (id BIGINT, v BIGINT)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO ev VALUES ")
	for i := 0; i < 200; i++ {
		v := i
		if i >= 198 { // duplicates of value 0 -> patches
			v = 0
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, v)
	}
	mustExec(t, e, sb.String())
	mustExec(t, e, "CREATE PATCHINDEX ON ev(v) UNIQUE")
}

func TestExplainAnalyzeMatchesExecution(t *testing.T) {
	e := newTestEngine(t)
	loadAnalyzeTable(t, e)

	res := mustExec(t, e, "SELECT DISTINCT v FROM ev")
	wantRows := len(res.Rows)
	if wantRows == 0 {
		t.Fatal("distinct query returned no rows")
	}

	ares := mustExec(t, e, "EXPLAIN ANALYZE SELECT DISTINCT v FROM ev")
	out := ares.Message
	if !strings.Contains(out, "PatchSelect") {
		t.Fatalf("EXPLAIN ANALYZE of a patched scan must show PatchSelect:\n%s", out)
	}
	if !strings.Contains(out, "patch_probes=") || !strings.Contains(out, "patch_hits=") {
		t.Errorf("missing patch counters:\n%s", out)
	}
	if !strings.Contains(out, "rows=") || !strings.Contains(out, "time=") {
		t.Errorf("missing per-operator actuals:\n%s", out)
	}
	if !strings.Contains(out, "est=") {
		t.Errorf("missing cost-model estimates:\n%s", out)
	}

	// The trailing execution summary must agree with the real row count.
	var gotRows int
	var elapsed string
	tail := out[strings.LastIndex(out, "Execution:"):]
	if _, err := fmt.Sscanf(tail, "Execution: %d rows in %s", &gotRows, &elapsed); err != nil {
		t.Fatalf("cannot parse execution summary %q: %v", tail, err)
	}
	if gotRows != wantRows {
		t.Errorf("EXPLAIN ANALYZE rows = %d, Exec rows = %d\n%s", gotRows, wantRows, out)
	}
}

func TestExplainAnalyzeRequiresPatchlessPath(t *testing.T) {
	// EXPLAIN without ANALYZE must not execute (and still works as before).
	e := newTestEngine(t)
	loadAnalyzeTable(t, e)
	res := mustExec(t, e, "EXPLAIN SELECT DISTINCT v FROM ev")
	if strings.Contains(res.Message, "Execution:") {
		t.Errorf("plain EXPLAIN must not execute:\n%s", res.Message)
	}
}

func TestResultDurationAndRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	var slow bytes.Buffer
	e, err := New(Config{
		Metrics:            reg,
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		SlowQueryLog:       &slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	loadAnalyzeTable(t, e)

	res := mustExec(t, e, "SELECT COUNT(DISTINCT v) FROM ev")
	if res.Duration <= 0 {
		t.Errorf("Result.Duration not populated: %v", res.Duration)
	}

	s := reg.Snapshot()
	if s.Counters["statements_total"] == 0 {
		t.Error("statements_total not incremented")
	}
	if s.Counters["queries_total"] == 0 {
		t.Error("queries_total not incremented")
	}
	if s.Counters["index_builds_total"] != 1 {
		t.Errorf("index_builds_total = %d, want 1", s.Counters["index_builds_total"])
	}
	if s.Counters["rewrites_fired_total"] == 0 {
		t.Error("rewrites_fired_total not incremented by the patched distinct")
	}
	if s.Histograms["query_nanos"].Count == 0 {
		t.Error("query_nanos histogram empty")
	}
	if s.Histograms["index_build_nanos"].Count != 1 {
		t.Errorf("index_build_nanos count = %d, want 1", s.Histograms["index_build_nanos"].Count)
	}
	if s.Counters["slow_queries_total"] == 0 {
		t.Error("slow_queries_total not incremented")
	}
	if !strings.Contains(slow.String(), "slow query") {
		t.Errorf("slow-query log empty or malformed: %q", slow.String())
	}

	// A drained SELECT takes the same bookkeeping path as a collected one.
	slowBefore := strings.Count(slow.String(), "slow query")
	if _, err := e.DrainWith("SELECT COUNT(DISTINCT v) FROM ev", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	d := reg.Snapshot()
	for _, name := range []string{"statements_total", "queries_total", "slow_queries_total"} {
		if got, want := d.Counters[name], s.Counters[name]+1; got != want {
			t.Errorf("after DrainWith: %s = %d, want %d", name, got, want)
		}
	}
	if got, want := d.Histograms["query_nanos"].Count, s.Histograms["query_nanos"].Count+1; got != want {
		t.Errorf("after DrainWith: query_nanos count = %d, want %d", got, want)
	}
	if got := strings.Count(slow.String(), "slow query"); got != slowBefore+1 {
		t.Errorf("after DrainWith: %d slow-log lines, want %d", got, slowBefore+1)
	}

	var text bytes.Buffer
	if err := e.Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "queries_total") {
		t.Errorf("WriteText missing queries_total:\n%s", text.String())
	}
}
