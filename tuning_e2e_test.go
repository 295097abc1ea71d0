package patchindex

import (
	"strings"
	"testing"
	"time"

	"patchindex/internal/tuning"
)

// newTunedEngine creates a profiling engine whose tuner uses test-scale
// guardrails; the background loop stays off, cycles are stepped via
// ALTER TUNER NOW (or RunCycle) for determinism.
func newTunedEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{
		WorkloadProfile: true,
		Tuning: tuning.Config{
			Interval:         time.Hour,
			MinTicks:         4,
			WarmupTicks:      4,
			DropIdleTicks:    8,
			DropBenefitFloor: 1e18, // idleness decides drops at test scale
			CooldownCycles:   2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// patchIndexRows returns SHOW PATCHINDEXES as key->origin, where key is
// "table.column/CONSTRAINT".
func patchIndexRows(t *testing.T, e *Engine) map[string]string {
	t.Helper()
	res := mustExec(t, e, "SHOW PATCHINDEXES")
	out := map[string]string{}
	for _, row := range res.Rows {
		out[row[0].Str+"."+row[1].Str+"/"+row[2].Str] = row[7].Str
	}
	return out
}

// TestTunerE2EConvergenceAndRollback is the PR's acceptance scenario: an
// engine with zero indexes under a skewed count-distinct workload gets its
// NUC PatchIndex auto-created within budget; EXPLAIN ANALYZE then shows the
// rewrite firing; when the workload shifts to sort queries the idle index is
// auto-dropped (and the NSC index created); ALTER TUNER ROLLBACK restores
// the pre-tuner (empty) index set.
func TestTunerE2EConvergenceAndRollback(t *testing.T) {
	e := newTunedEngine(t)
	loadExceptionTable(t, e, "data", 5000, 4, 0.05, 7)
	if got := patchIndexRows(t, e); len(got) != 0 {
		t.Fatalf("expected zero indexes at start, got %v", got)
	}

	// Phase A: skewed count-distinct workload until the tuner creates the
	// NUC index.
	created := false
	for cycle := 0; cycle < 12 && !created; cycle++ {
		for i := 0; i < 4; i++ {
			mustExec(t, e, "SELECT COUNT(DISTINCT u) FROM data")
		}
		mustExec(t, e, "ALTER TUNER NOW")
		created = patchIndexRows(t, e)["data.u/NEARLY UNIQUE"] == "auto"
	}
	if !created {
		t.Fatalf("tuner never auto-created the NUC index; journal: %+v", e.Tuner().Journal())
	}

	// The rewrite fires on the auto-created index.
	out := mustExec(t, e, "EXPLAIN ANALYZE SELECT COUNT(DISTINCT u) FROM data").Message
	if !strings.Contains(out, "PatchSelect") {
		t.Fatalf("EXPLAIN ANALYZE shows no PatchSelect after auto-create:\n%s", out)
	}

	// SHOW TUNER reports the creation.
	st := e.Tuner().Status()
	if st.Creates < 1 || st.AutoLive < 1 {
		t.Fatalf("tuner status inconsistent after create: %+v", st)
	}

	// Phase B: the workload shifts to sort queries; the idle NUC index is
	// dropped and the NSC index created.
	uDropped, sCreated := false, false
	for cycle := 0; cycle < 24 && !(uDropped && sCreated); cycle++ {
		for i := 0; i < 4; i++ {
			mustExec(t, e, "SELECT s FROM data ORDER BY s")
		}
		mustExec(t, e, "ALTER TUNER NOW")
		rows := patchIndexRows(t, e)
		_, hasU := rows["data.u/NEARLY UNIQUE"]
		uDropped = !hasU
		sCreated = rows["data.s/NEARLY SORTED"] == "auto"
	}
	if !uDropped || !sCreated {
		t.Fatalf("workload shift did not converge (uDropped=%v sCreated=%v); indexes %v journal %+v",
			uDropped, sCreated, patchIndexRows(t, e), e.Tuner().Journal())
	}

	// Rollback restores the pre-tuner index set (empty).
	mustExec(t, e, "ALTER TUNER ROLLBACK")
	if got := patchIndexRows(t, e); len(got) != 0 {
		t.Fatalf("rollback left indexes: %v", got)
	}
	if st := e.Tuner().Status(); st.Rollbacks != 1 {
		t.Fatalf("rollback not counted: %+v", st)
	}
}

// TestTunerDifferentialIdentical: at every step of a shifting workload the
// tuned engine returns byte-identical results to an untouched engine —
// auto-created and auto-dropped indexes never change query output.
func TestTunerDifferentialIdentical(t *testing.T) {
	queries := []string{
		"SELECT COUNT(DISTINCT u) FROM data",
		"SELECT u FROM data WHERE u < 100 ORDER BY u",
		"SELECT COUNT(*), SUM(s) FROM data WHERE u >= 500",
	}
	var workload []string
	for i := 0; i < 8; i++ { // distinct-heavy phase
		workload = append(workload, queries[0], queries[1])
	}
	for i := 0; i < 12; i++ { // sort-heavy phase
		workload = append(workload, "SELECT s FROM data ORDER BY s", queries[2])
	}

	plainEng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer plainEng.Close()
	loadExceptionTable(t, plainEng, "data", 5000, 4, 0.05, 42)
	tunedEng := newTunedEngine(t)
	loadExceptionTable(t, tunedEng, "data", 5000, 4, 0.05, 42)

	for i, q := range workload {
		plain := mustExec(t, plainEng, q).String()
		tuned := mustExec(t, tunedEng, q).String()
		if plain != tuned {
			t.Fatalf("step %d query %q differs with tuner on:\n--- plain ---\n%s\n--- tuned ---\n%s",
				i, q, plain, tuned)
		}
		if i%4 == 3 {
			tunedEng.Tuner().RunCycle()
		}
	}
	// Sanity: the tuner actually acted during the run, so the differential
	// compared meaningfully different physical designs.
	if st := tunedEng.Tuner().Status(); st.Creates == 0 {
		t.Fatalf("tuner never created an index during the differential workload: %+v", st)
	}
}

// TestShowPatchindexesOriginBenefitColumns: SHOW PATCHINDEXES reports origin
// (manual vs auto), decayed benefit and last_used_tick.
func TestShowPatchindexesOriginBenefitColumns(t *testing.T) {
	e := newTunedEngine(t)
	loadExceptionTable(t, e, "data", 2000, 2, 0.05, 3)
	mustExec(t, e, "CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5")

	res := mustExec(t, e, "SHOW PATCHINDEXES")
	want := []string{"table", "column", "constraint", "kind", "patches", "rate", "bytes", "origin", "benefit", "last_used_tick", "representation", "utilization"}
	if strings.Join(res.Columns, ",") != strings.Join(want, ",") {
		t.Fatalf("SHOW PATCHINDEXES columns = %v, want %v", res.Columns, want)
	}
	if len(res.Rows) != 1 || res.Rows[0][7].Str != "manual" {
		t.Fatalf("manual index origin wrong: %+v", res.Rows)
	}
	if res.Rows[0][9].I64 != 0 {
		t.Fatalf("unused index must report last_used_tick 0, got %d", res.Rows[0][9].I64)
	}

	// Use the index; benefit and last_used_tick become non-zero.
	mustExec(t, e, "SELECT COUNT(DISTINCT u) FROM data")
	res = mustExec(t, e, "SHOW PATCHINDEXES")
	if res.Rows[0][8].F64 <= 0 {
		t.Fatalf("benefit not attributed after rewrite: %+v", res.Rows[0])
	}
	if res.Rows[0][9].I64 <= 0 {
		t.Fatalf("last_used_tick not stamped after rewrite: %+v", res.Rows[0])
	}
}

// TestAlterTunerSQLSurface covers the statement surface: SHOW TUNER renders
// key/value rows, ALTER TUNER START/STOP toggle the loop, and unknown
// actions fail to parse.
func TestAlterTunerSQLSurface(t *testing.T) {
	e := newTunedEngine(t)

	res := mustExec(t, e, "SHOW TUNER")
	if len(res.Columns) != 2 || res.Columns[0] != "setting" {
		t.Fatalf("SHOW TUNER shape: %+v", res.Columns)
	}
	kv := map[string]string{}
	for _, row := range res.Rows {
		kv[row[0].Str] = row[1].Str
	}
	if kv["running"] != "false" {
		t.Fatalf("tuner should start stopped: %v", kv)
	}

	mustExec(t, e, "ALTER TUNER START")
	if !e.Tuner().Running() {
		t.Fatal("ALTER TUNER START did not start the loop")
	}
	mustExec(t, e, "ALTER TUNER STOP")
	if e.Tuner().Running() {
		t.Fatal("ALTER TUNER STOP did not stop the loop")
	}

	if _, err := e.Exec("ALTER TUNER FROBNICATE"); err == nil ||
		!strings.Contains(err.Error(), "ALTER TUNER") {
		t.Fatalf("unknown tuner action must fail with a helpful error, got %v", err)
	}
}

// TestAutoTuneConfigStartsLoop: Config.AutoTune launches the background loop
// and enables profiling; Close stops it.
func TestAutoTuneConfigStartsLoop(t *testing.T) {
	e, err := New(Config{AutoTune: true, Tuning: tuning.Config{Interval: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Tuner().Running() {
		t.Fatal("AutoTune did not start the tuner")
	}
	if !e.Profiler().Enabled() {
		t.Fatal("AutoTune must imply workload profiling")
	}
	// Let a few (cold, skipped) cycles elapse, then shut down cleanly.
	time.Sleep(10 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Tuner().Running() {
		t.Fatal("Close did not stop the tuner")
	}
}
