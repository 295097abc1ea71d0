package patchindex

import (
	"fmt"
	"testing"

	"patchindex/internal/discovery"
	"patchindex/internal/patch"
	"patchindex/internal/vector"
)

func newServingEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{DefaultPartitions: 2, ResultCache: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func counter(e *Engine, name string) int64 {
	return e.Metrics().Snapshot().Counters[name]
}

// TestPreparedRebindsOnEpochChange is the regression test for the prepared
// statement staleness bug: a long-lived Prepared must pick up (and later
// drop) patch-union rewrites when the tuner or DDL changes the index set:
// every execution plans against the current catalog.
func TestPreparedRebindsOnEpochChange(t *testing.T) {
	e := newServingEngine(t)
	loadExceptionTable(t, e, "data", 4000, 2, 0.05, 42)

	prep, err := e.Prepare("SELECT COUNT(DISTINCT u) FROM data")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecPrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(res.Rows)
	if fired := counter(e, "rewrites_fired_total"); fired != 0 {
		t.Fatalf("no index yet but %d rewrites fired", fired)
	}

	// Simulate a tuner auto-create: the next prepared execution must bind
	// the new index.
	if _, err := e.CreatePatchIndex("data", "u", patch.NearlyUnique,
		discovery.BuildOptions{Threshold: 1.0, Force: true}); err != nil {
		t.Fatal(err)
	}
	res, err = e.ExecPrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != want {
		t.Fatalf("result changed after index create: %s vs %s", got, want)
	}
	if fired := counter(e, "rewrites_fired_total"); fired == 0 {
		t.Fatal("prepared statement kept its stale plan: no rewrite fired after index create")
	}

	// Simulate a tuner drop: the plan must rebind again and stop using the
	// dropped index (and still return the same answer).
	if err := e.DropPatchIndex("data", "u"); err != nil {
		t.Fatal(err)
	}
	firedBefore := counter(e, "rewrites_fired_total")
	res, err = e.ExecPrepared(prep)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != want {
		t.Fatalf("result changed after index drop: %s vs %s", got, want)
	}
	if fired := counter(e, "rewrites_fired_total"); fired != firedBefore {
		t.Fatal("rewrite fired against a dropped index")
	}
}

// TestResultCacheInvalidatesOnAppend proves zero stale results: any append
// to a referenced table must bump its version stamp and drop cached rows.
func TestResultCacheInvalidatesOnAppend(t *testing.T) {
	e := newServingEngine(t)
	loadExceptionTable(t, e, "data", 1000, 2, 0.0, 7)
	q := "SELECT COUNT(*) FROM data"
	res := mustExec(t, e, q)
	if res.Rows[0][0].I64 != 1000 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	mustExec(t, e, q) // populate + hit
	if hits := counter(e, "serving_result_cache_hits_total"); hits != 1 {
		t.Fatalf("result cache hits = %d, want 1", hits)
	}
	u := vector.NewFromInt64([]int64{100000})
	s := vector.NewFromInt64([]int64{100000})
	pay := vector.New(vector.Float64, 1)
	pay.AppendFloat64(1)
	if err := e.Append("data", 0, []*vector.Vector{u, s, pay}); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, e, q)
	if res.Rows[0][0].I64 != 1001 {
		t.Fatalf("stale result served after append: %v", res.Rows[0][0])
	}
	if stale := counter(e, "serving_result_cache_stale_evictions_total"); stale != 1 {
		t.Fatalf("stale evictions = %d, want 1", stale)
	}
}

// TestResultCacheSkipsNondeterministicOrder: bare scans may legally return
// rows in different orders, so they must bypass the result cache.
func TestResultCacheSkipsNondeterministicOrder(t *testing.T) {
	e := newServingEngine(t)
	loadExceptionTable(t, e, "data", 1000, 2, 0.0, 7)
	q := "SELECT u FROM data WHERE s < 50"
	mustExec(t, e, q)
	mustExec(t, e, q)
	if hits := counter(e, "serving_result_cache_hits_total"); hits != 0 {
		t.Fatalf("unordered scan must not be result-cached (hits=%d)", hits)
	}
	// An ORDER BY variant is deterministic and caches.
	qo := q + " ORDER BY u"
	a := fmt.Sprint(mustExec(t, e, qo).Rows)
	b := fmt.Sprint(mustExec(t, e, qo).Rows)
	if a != b {
		t.Fatalf("cached ordered result differs: %s vs %s", b, a)
	}
	if hits := counter(e, "serving_result_cache_hits_total"); hits != 1 {
		t.Fatalf("ordered scan should result-cache (hits=%d)", hits)
	}
}

// TestServingDisabledByDefault: a default-config engine must never count
// serving cache traffic (the disabled path is a single atomic load).
func TestServingDisabledByDefault(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE kv (k BIGINT, v BIGINT)")
	mustExec(t, e, "INSERT INTO kv VALUES (1, 2)")
	mustExec(t, e, "SELECT COUNT(*) FROM kv")
	mustExec(t, e, "SELECT COUNT(*) FROM kv")
	snap := e.Metrics().Snapshot()
	for _, name := range []string{
		"serving_result_cache_hits_total", "serving_result_cache_misses_total",
	} {
		if snap.Counters[name] != 0 {
			t.Fatalf("%s = %d on a disabled cache", name, snap.Counters[name])
		}
	}
	st := e.ServingStats()
	if st.ResultCache.Enabled {
		t.Fatal("result cache must be disabled by default")
	}
}
