package serving

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"patchindex/internal/obs"
)

func TestResultCacheVersionInvalidation(t *testing.T) {
	c := NewResultCache(1<<20, nil)
	c.SetEnabled(true)
	opts := OptsKey{}
	c.Put("q", opts, []uint64{10, 20}, "t1", 100, "rows-v1")
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
	c.Put("big", opts, nil, "t", 500, "x")
	if _, ok := c.Get("big", opts, nil); ok {
		t.Fatal("oversized entry must bypass")
	}
	for i := 0; i < 12; i++ {
		c.Put(fmt.Sprintf("q%d", i), opts, nil, "t", 100, i)
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

func TestResultCacheTenantBudget(t *testing.T) {
	c := NewResultCache(10_000, nil)
	c.SetEnabled(true)
	c.SetTenantBudget("small", 250)
	opts := OptsKey{}
	c.Put("a", opts, nil, "small", 100, "a")
	c.Put("b", opts, nil, "small", 100, "b")
	c.Put("c", opts, nil, "small", 100, "c") // evicts "a" (tenant budget)
	if _, ok := c.Get("a", opts, nil); ok {
		t.Fatal("tenant budget should have evicted a")
	}
	if _, ok := c.Get("c", opts, nil); !ok {
		t.Fatal("c should be cached")
	}
	if got := c.Stats().BytesByTenant["small"]; got != 200 {
		t.Fatalf("tenant bytes = %d, want 200", got)
	}
	// Other tenants are unaffected.
	c.Put("d", opts, nil, "other", 100, "d")
	if _, ok := c.Get("d", opts, nil); !ok {
		t.Fatal("other tenant should cache freely")
	}
	// An entry larger than the tenant budget bypasses without touching
	// other tenants' entries.
	c.Put("huge", opts, nil, "small", 300, "huge")
	if _, ok := c.Get("huge", opts, nil); ok {
		t.Fatal("over-tenant-budget entry must bypass")
	}
	if _, ok := c.Get("d", opts, nil); !ok {
		t.Fatal("other tenant entry must survive")
	}
}

func TestQoSTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	q := NewQoS(TenantLimits{}, map[string]TenantLimits{
		"batch": {RatePerSec: 2, Burst: 2},
	}, nil)
	q.SetClock(func() time.Time { return now })

	// Burst of 2 admits twice, then throttles.
	for i := 0; i < 2; i++ {
		rel, err := q.Admit("batch")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		rel()
	}
	if _, err := q.Admit("batch"); err != ErrThrottled {
		t.Fatalf("expected ErrThrottled, got %v", err)
	}
	// Half a second refills one token.
	now = now.Add(500 * time.Millisecond)
	rel, err := q.Admit("batch")
	if err != nil {
		t.Fatalf("after refill: %v", err)
	}
	rel()
	if _, err := q.Admit("batch"); err != ErrThrottled {
		t.Fatalf("bucket should be dry again, got %v", err)
	}
	// Default tenant is unlimited.
	for i := 0; i < 100; i++ {
		rel, err := q.Admit("dash")
		if err != nil {
			t.Fatalf("unlimited tenant throttled: %v", err)
		}
		rel()
	}
	snaps := q.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("expected 2 tenants, got %d", len(snaps))
	}
	if snaps[0].Tenant != "batch" || snaps[0].Shed != 2 || snaps[0].Admitted != 3 {
		t.Fatalf("batch snapshot: %+v", snaps[0])
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

func TestQoSPriorityAndNil(t *testing.T) {
	q := NewQoS(TenantLimits{Priority: "low"}, map[string]TenantLimits{
		"dash": {Priority: "high"},
	}, nil)
	if q.Priority("dash") != PriorityHigh || q.Priority("anyone") != PriorityLow {
		t.Fatal("priority resolution wrong")
	}
	var nilQ *QoS
	rel, err := nilQ.Admit("x")
	if err != nil {
		t.Fatal("nil QoS must admit")
	}
	rel()
	if nilQ.Priority("x") != PriorityNormal {
		t.Fatal("nil QoS priority must be normal")
	}
	nilQ.Shed("x") // must not panic
}

func TestQoSMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	q := NewQoS(TenantLimits{RatePerSec: 0.0001, Burst: 1}, nil, reg)
	rel, err := q.Admit("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Admit("acme"); err == nil {
		t.Fatal("second admit should throttle")
	}
	rel()
	snap := reg.Snapshot()
	if snap.Counters["tenant.acme.shed"] != 1 {
		t.Fatalf("tenant.acme.shed = %d", snap.Counters["tenant.acme.shed"])
	}
	if snap.Counters["tenant.acme.admitted"] != 1 {
		t.Fatalf("tenant.acme.admitted = %d", snap.Counters["tenant.acme.admitted"])
	}
	if _, ok := snap.Gauges["tenant.acme.in_flight"]; !ok {
		t.Fatal("tenant.acme.in_flight gauge missing")
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
