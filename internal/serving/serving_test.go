package serving

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"patchindex/internal/obs"
)

func TestResultCacheVersionInvalidation(t *testing.T) {
	c := NewResultCache(1<<20, nil)
	c.SetEnabled(true)
	opts := OptsKey{}
	c.Put("q", opts, []uint64{10, 20}, 100, "rows-v1")
	if v, ok := c.Get("q", opts, []uint64{10, 20}); !ok || v.(string) != "rows-v1" {
		t.Fatalf("expected hit, got %v %v", v, ok)
	}
	// A bumped table version must drop the entry (stale).
	if _, ok := c.Get("q", opts, []uint64{10, 21}); ok {
		t.Fatal("stale versions must miss")
	}
	if _, ok := c.Get("q", opts, []uint64{10, 20}); ok {
		t.Fatal("stale entry must have been dropped, not resurrected")
	}
	st := c.Stats()
	if st.StaleEvictions != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestResultCacheByteBudget(t *testing.T) {
	c := NewResultCache(1000, nil)
	c.SetEnabled(true)
	opts := OptsKey{}
	// maxEntry = 125; anything larger bypasses.
	c.Put("big", opts, nil, 500, "x")
	if _, ok := c.Get("big", opts, nil); ok {
		t.Fatal("oversized entry must bypass")
	}
	for i := 0; i < 12; i++ {
		c.Put(fmt.Sprintf("q%d", i), opts, nil, 100, i)
	}
	st := c.Stats()
	if st.Bytes > 1000 {
		t.Fatalf("budget exceeded: %d bytes", st.Bytes)
	}
	if st.Entries != 10 || st.Evictions != 2 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	// Oldest entries were evicted, newest survive.
	if _, ok := c.Get("q0", opts, nil); ok {
		t.Fatal("q0 should have been evicted")
	}
	if _, ok := c.Get("q11", opts, nil); !ok {
		t.Fatal("q11 should survive")
	}
}

func TestQoSInFlightCap(t *testing.T) {
	q := NewQoS(TenantLimits{MaxInFlight: 2}, nil, nil)
	r1, err := q.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := q.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Admit("t"); err != ErrTenantBusy {
		t.Fatalf("expected ErrTenantBusy, got %v", err)
	}
	r1()
	r3, err := q.Admit("t")
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	r3()
	r2()
	if got := q.Snapshot()[0].InFlight; got != 0 {
		t.Fatalf("in-flight = %d after all releases", got)
	}
}

// TestQoSUnlistedTenantsSharePool: ids missing from the configured tenants
// share the default pool and its cap, so wire input cannot mint new
// tenant state; a configured tenant keeps its own cap.
func TestQoSUnlistedTenantsSharePool(t *testing.T) {
	reg := obs.NewRegistry()
	q := NewQoS(TenantLimits{MaxInFlight: 1}, map[string]TenantLimits{"vip": {}}, reg)
	rel, err := q.Admit("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Admit("b"); err != ErrTenantBusy {
		t.Fatalf("unlisted tenant b must share a's pool, got %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := q.Admit("vip"); err != nil {
			t.Fatalf("configured uncapped tenant: %v", err)
		}
	}
	rel()
	snaps := q.Snapshot()
	if len(snaps) != 2 || snaps[0].Tenant != DefaultTenant || snaps[1].Tenant != "vip" {
		t.Fatalf("snapshot tenants: %+v", snaps)
	}
	if snaps[0].Admitted != 1 || snaps[0].Shed != 1 || snaps[1].InFlight != 3 {
		t.Fatalf("snapshot counts: %+v", snaps)
	}
	for name := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "tenant.a.") || strings.HasPrefix(name, "tenant.b.") {
			t.Fatalf("unlisted tenant registered metric %q", name)
		}
	}
}

func TestQoSNil(t *testing.T) {
	var nilQ *QoS
	rel, err := nilQ.Admit("x")
	if err != nil {
		t.Fatal("nil QoS must admit")
	}
	rel()
	nilQ.Shed("x") // must not panic
	if nilQ.Snapshot() != nil {
		t.Fatal("nil QoS must have no snapshot")
	}
}

func TestQoSMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	q := NewQoS(TenantLimits{}, map[string]TenantLimits{"acme": {MaxInFlight: 1}}, reg)
	rel, err := q.Admit("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges["tenant.acme.in_flight"]; got != 1 {
		t.Fatalf("tenant.acme.in_flight = %d while admitted, want 1", got)
	}
	if _, err := q.Admit("acme"); err != ErrTenantBusy {
		t.Fatalf("second admit: want ErrTenantBusy, got %v", err)
	}
	rel()
	snap := reg.Snapshot()
	if snap.Counters["tenant.acme.shed"] != 1 {
		t.Fatalf("tenant.acme.shed = %d", snap.Counters["tenant.acme.shed"])
	}
	if snap.Counters["tenant.acme.admitted"] != 1 {
		t.Fatalf("tenant.acme.admitted = %d", snap.Counters["tenant.acme.admitted"])
	}
	if got, ok := snap.Gauges["tenant.acme.in_flight"]; !ok || got != 0 {
		t.Fatalf("tenant.acme.in_flight = %d (present %v) after release, want 0", got, ok)
	}
}

// TestParseTenants: the tenants file is strict. Fields of deleted limits,
// misspelled fields, invalid ids, negative caps and trailing data fail
// instead of silently dropping a limit.
func TestParseTenants(t *testing.T) {
	got, err := ParseTenants([]byte(`{"batch": {"max_in_flight": 1}, "dash": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["batch"].MaxInFlight != 1 || got["dash"].MaxInFlight != 0 {
		t.Fatalf("parsed %+v", got)
	}
	for _, bad := range []string{
		`{"batch": {"rate_per_sec": 5}}`,
		`{"batch": {"burst": 5}}`,
		`{"batch": {"priority": "low"}}`,
		`{"batch": {"result_cache_bytes": 1024}}`,
		`{"batch": {"max_inflight": 1}}`,
		`{"bad tenant": {"max_in_flight": 1}}`,
		`{"t.x": {}}`,
		`{"batch": {"max_in_flight": -1}}`,
		`{"batch": {}} {"dash": {}}`,
		`[1]`,
		``,
	} {
		if _, err := ParseTenants([]byte(bad)); err == nil {
			t.Errorf("ParseTenants(%s) succeeded, want an error", bad)
		}
	}
}

// TestResultCacheMetricNamesValid: every metric the result cache registers
// is a valid Prometheus name, and every counter ends in _total.
func TestResultCacheMetricNamesValid(t *testing.T) {
	reg := obs.NewRegistry()
	NewResultCache(0, reg)
	snap := reg.Snapshot()
	valid := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	if len(snap.Counters) == 0 || len(snap.Gauges) == 0 {
		t.Fatalf("no result-cache metrics registered: %+v", snap)
	}
	for name := range snap.Counters {
		if !valid.MatchString(name) || !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %q: want a Prometheus name ending in _total", name)
		}
	}
	for name := range snap.Gauges {
		if !valid.MatchString(name) {
			t.Errorf("gauge %q: not a valid Prometheus name", name)
		}
	}
}
