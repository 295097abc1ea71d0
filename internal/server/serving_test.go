package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"patchindex"
	"patchindex/internal/serving"
)

// TestTenantSettingRoundTrip covers the wire-level tenant identity: the
// hello echoes the default tenant, `\set tenant` (and the request field)
// move the session, and bad ids are rejected.
func TestTenantSettingRoundTrip(t *testing.T) {
	s := startServer(t, Config{})
	cli, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.SetTenant("acme"); err != nil {
		t.Fatalf("set tenant: %v", err)
	}
	if err := cli.SetTenant("bad tenant!"); err == nil {
		t.Fatal("invalid tenant id must be rejected")
	}
	if err := cli.SetTenant(""); err == nil {
		t.Fatal("empty tenant id must be rejected")
	}
	// The session survives a rejected set and keeps working.
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantRateLimitThrottles drives a tenant past its token bucket and
// checks the throttled code, the sentinel mapping, and the per-tenant shed
// metrics (which must also reach the /metrics registry by name).
func TestTenantRateLimitThrottles(t *testing.T) {
	eng := newTestEngine(t)
	if _, err := eng.Exec("CREATE TABLE kv (k BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	qos := serving.NewQoS(serving.TenantLimits{}, map[string]serving.TenantLimits{
		"noisy": {RatePerSec: 0.001, Burst: 2},
	}, eng.Metrics())
	s := startServer(t, Config{Engine: eng, QoS: qos})
	cli, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.SetTenant("noisy"); err != nil {
		t.Fatal(err)
	}

	var throttled int
	for i := 0; i < 5; i++ {
		_, err := cli.Query("SELECT COUNT(*) FROM kv")
		if err != nil {
			if !errors.Is(err, serving.ErrThrottled) {
				t.Fatalf("query %d: want throttled, got %v", i, err)
			}
			var se *ServerError
			if !errors.As(err, &se) || se.Code != "throttled" {
				t.Fatalf("query %d: wire code = %v", i, err)
			}
			throttled++
		}
	}
	if throttled != 3 {
		t.Fatalf("throttled %d of 5, want 3 (burst 2)", throttled)
	}
	snap := eng.Metrics().Snapshot()
	if snap.Counters["tenant.noisy.shed"] != 3 {
		t.Fatalf("tenant.noisy.shed = %d, want 3", snap.Counters["tenant.noisy.shed"])
	}
	if snap.Counters["tenant.noisy.admitted"] != 2 {
		t.Fatalf("tenant.noisy.admitted = %d, want 2", snap.Counters["tenant.noisy.admitted"])
	}
	// An unlimited tenant on the same server is unaffected.
	cli2, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	for i := 0; i < 5; i++ {
		if _, err := cli2.Query("SELECT COUNT(*) FROM kv"); err != nil {
			t.Fatalf("default tenant throttled: %v", err)
		}
	}
}

// TestManyTenantShed is the many-tenant shed test: a fleet of rate-limited
// tenants hammers the server concurrently; every error must be a QoS
// throttle (never an internal error), per-tenant shed counters must add up,
// and in-flight gauges must return to zero.
func TestManyTenantShed(t *testing.T) {
	eng := newTestEngine(t)
	if _, err := eng.Exec("CREATE TABLE kv (k BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	overrides := map[string]serving.TenantLimits{}
	const tenants = 8
	for i := 0; i < tenants; i++ {
		overrides[fmt.Sprintf("t%d", i)] = serving.TenantLimits{
			RatePerSec: 0.001, Burst: 3, Priority: "low",
		}
	}
	qos := serving.NewQoS(serving.TenantLimits{}, overrides, eng.Metrics())
	s := startServer(t, Config{Engine: eng, QoS: qos, MaxConcurrent: 2, QueueDepth: 8})

	const perTenant = 10
	var wg sync.WaitGroup
	errCh := make(chan error, tenants*perTenant)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := Dial(s.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer cli.Close()
			if err := cli.SetTenant(fmt.Sprintf("t%d", i)); err != nil {
				errCh <- err
				return
			}
			for j := 0; j < perTenant; j++ {
				if _, err := cli.Query("SELECT COUNT(*) FROM kv"); err != nil {
					if !errors.Is(err, serving.ErrThrottled) && !errors.Is(err, serving.ErrTenantBusy) && !errors.Is(err, ErrServerBusy) {
						errCh <- fmt.Errorf("tenant %d: %w", i, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	snap := eng.Metrics().Snapshot()
	totalShed, totalAdmitted := int64(0), int64(0)
	for i := 0; i < tenants; i++ {
		shed := snap.Counters[fmt.Sprintf("tenant.t%d.shed", i)]
		admitted := snap.Counters[fmt.Sprintf("tenant.t%d.admitted", i)]
		if shed+admitted < perTenant {
			t.Fatalf("tenant t%d: shed %d + admitted %d < %d issued", i, shed, admitted, perTenant)
		}
		if gauge := snap.Gauges[fmt.Sprintf("tenant.t%d.in_flight", i)]; gauge != 0 {
			t.Fatalf("tenant t%d: in_flight gauge %d after drain", i, gauge)
		}
		totalShed += shed
		totalAdmitted += admitted
	}
	// Burst 3 per tenant with a ~zero refill rate: most requests shed.
	if totalShed < tenants*(perTenant-3) {
		t.Fatalf("total shed %d, want >= %d", totalShed, tenants*(perTenant-3))
	}
	if totalAdmitted != tenants*3 {
		t.Fatalf("total admitted %d, want %d (burst)", totalAdmitted, tenants*3)
	}
	// The QoS snapshot (served under /stats) agrees with the registry.
	var snapShed int64
	for _, ts := range qos.Snapshot() {
		snapShed += ts.Shed
	}
	if snapShed != totalShed {
		t.Fatalf("qos snapshot shed %d != registry %d", snapShed, totalShed)
	}
}

// TestTenantInFlightCap verifies the per-tenant in-flight budget through
// the full server stack using the engine's own latching to hold queries
// open: an exclusive-latch INSERT stalls behind a long SELECT... instead we
// simply use QoS unit semantics plus the server path for the error code.
func TestTenantInFlightCap(t *testing.T) {
	eng := newTestEngine(t)
	if _, err := eng.Exec("CREATE TABLE kv (k BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	qos := serving.NewQoS(serving.TenantLimits{}, map[string]serving.TenantLimits{
		"capped": {MaxInFlight: 1},
	}, eng.Metrics())
	// Hold the tenant's only slot directly, then prove the server sheds.
	release, err := qos.Admit("capped")
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Engine: eng, QoS: qos})
	cli, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.SetTenant("capped"); err != nil {
		t.Fatal(err)
	}
	_, qerr := cli.Query("SELECT COUNT(*) FROM kv")
	if !errors.Is(qerr, serving.ErrThrottled) {
		t.Fatalf("want throttled sentinel for busy tenant, got %v", qerr)
	}
	release()
	if _, err := cli.Query("SELECT COUNT(*) FROM kv"); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestServingStatsEndpoint checks the serving cache metrics surface end to
// end: a cached engine behind the server must report result cache
// traffic in the registry (and therefore /metrics, /stats, the sampler).
func TestServingStatsEndpoint(t *testing.T) {
	eng, err := patchindex.New(patchindex.Config{ResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Exec("CREATE TABLE kv (k BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("INSERT INTO kv VALUES (1, 2), (3, 4)"); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Engine: eng})
	cli, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 3; i++ {
		if _, err := cli.Query("SELECT COUNT(*) FROM kv"); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Metrics().Snapshot()
	if snap.Counters["serving_result_cache_hits_total"] < 2 {
		t.Fatalf("result cache hits = %d", snap.Counters["serving_result_cache_hits_total"])
	}
	st := eng.ServingStats()
	if !st.ResultCache.Enabled || st.ResultCache.Entries == 0 {
		t.Fatalf("serving stats: %+v", st)
	}
}
