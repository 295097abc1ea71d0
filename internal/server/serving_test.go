package server

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patchindex"
	"patchindex/internal/server/protocol"
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

// TestTenantInFlightCap holds a capped tenant's only slot and checks the
// server sheds that tenant's query with serving.ErrTenantBusy, admits it
// again once the slot is released, and returns the in-flight gauge to zero.
func TestTenantInFlightCap(t *testing.T) {
	eng := newTestEngine(t)
	if _, err := eng.Exec("CREATE TABLE kv (k BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	qos := serving.NewQoS(serving.TenantLimits{}, map[string]serving.TenantLimits{
		"capped": {MaxInFlight: 1},
	}, eng.Metrics())
	release, err := qos.Admit("capped")
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Engine: eng, QoS: qos})
	cli := dial(t, s)
	if err := cli.SetTenant("capped"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Query("SELECT COUNT(*) FROM kv"); !errors.Is(err, serving.ErrTenantBusy) {
		t.Fatalf("want ErrTenantBusy for busy tenant, got %v", err)
	}
	release()
	if _, err := cli.Query("SELECT COUNT(*) FROM kv"); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if g := eng.Metrics().Snapshot().Gauges["tenant.capped.in_flight"]; g != 0 {
		t.Fatalf("tenant.capped.in_flight = %d after release, want 0", g)
	}
}

// TestTenantShedCodeAndMetrics sheds a capped tenant's queries and checks
// the wire code "throttled", its mapping to serving.ErrTenantBusy, the
// per-tenant shed and admitted counters in the registry, and that an
// uncapped tenant on the same server is unaffected.
func TestTenantShedCodeAndMetrics(t *testing.T) {
	eng := newTestEngine(t)
	if _, err := eng.Exec("CREATE TABLE kv (k BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	qos := serving.NewQoS(serving.TenantLimits{}, map[string]serving.TenantLimits{
		"capped": {MaxInFlight: 1},
	}, eng.Metrics())
	release, err := qos.Admit("capped")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	s := startServer(t, Config{Engine: eng, QoS: qos})
	cli := dial(t, s)
	if err := cli.SetTenant("capped"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, err := cli.Query("SELECT COUNT(*) FROM kv")
		if !errors.Is(err, serving.ErrTenantBusy) {
			t.Fatalf("query %d: want ErrTenantBusy, got %v", i, err)
		}
		var se *ServerError
		if !errors.As(err, &se) || se.Code != protocol.CodeThrottled {
			t.Fatalf("query %d: wire code = %v", i, err)
		}
	}
	snap := eng.Metrics().Snapshot()
	if snap.Counters["tenant.capped.shed"] != 3 {
		t.Fatalf("tenant.capped.shed = %d, want 3", snap.Counters["tenant.capped.shed"])
	}
	if snap.Counters["tenant.capped.admitted"] != 1 {
		t.Fatalf("tenant.capped.admitted = %d, want 1 (the held slot)", snap.Counters["tenant.capped.admitted"])
	}
	cli2 := dial(t, s)
	for i := 0; i < 5; i++ {
		if _, err := cli2.Query("SELECT COUNT(*) FROM kv"); err != nil {
			t.Fatalf("default tenant shed: %v", err)
		}
	}
}

// TestManyTenantShed is the many-tenant shed test: a fleet of tenants,
// each capped at one in-flight query and driven by three clients, hammers
// a small worker pool. Every error must be a tenant or queue shed (never
// an internal error), each tenant's shed and admitted counters must match
// what its clients saw, and in-flight gauges must return to zero. Tenant
// t0's only slot is held for the whole run, so sheds are guaranteed.
func TestManyTenantShed(t *testing.T) {
	eng := newTestEngine(t)
	if _, err := eng.Exec("CREATE TABLE kv (k BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	const tenants, clients, perClient = 8, 3, 10
	overrides := map[string]serving.TenantLimits{}
	for i := 0; i < tenants; i++ {
		overrides[fmt.Sprintf("t%d", i)] = serving.TenantLimits{MaxInFlight: 1}
	}
	qos := serving.NewQoS(serving.TenantLimits{}, overrides, eng.Metrics())
	hold, err := qos.Admit("t0")
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Engine: eng, QoS: qos, MaxConcurrent: 2, QueueDepth: 8})

	// Per tenant: queries answered, shed by the tenant cap, shed by the queue.
	var ok, throttled, busy [tenants]atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, tenants*clients)
	for i := 0; i < tenants; i++ {
		for c := 0; c < clients; c++ {
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
				for j := 0; j < perClient; j++ {
					_, err := cli.Query("SELECT COUNT(*) FROM kv")
					switch {
					case err == nil:
						ok[i].Add(1)
					case errors.Is(err, serving.ErrTenantBusy):
						throttled[i].Add(1)
					case errors.Is(err, ErrServerBusy):
						busy[i].Add(1)
					default:
						errCh <- fmt.Errorf("tenant %d: %w", i, err)
						return
					}
				}
			}(i)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	hold()

	snap := eng.Metrics().Snapshot()
	var totalShed int64
	for i := 0; i < tenants; i++ {
		shed := snap.Counters[fmt.Sprintf("tenant.t%d.shed", i)]
		admitted := snap.Counters[fmt.Sprintf("tenant.t%d.admitted", i)]
		if want := throttled[i].Load() + busy[i].Load(); shed != want {
			t.Errorf("tenant t%d: shed %d, clients saw %d sheds", i, shed, want)
		}
		// Queue sheds were admitted by the tenant cap first; t0 also holds
		// the slot taken above.
		want := ok[i].Load() + busy[i].Load()
		if i == 0 {
			want++
		}
		if admitted != want {
			t.Errorf("tenant t%d: admitted %d, want %d", i, admitted, want)
		}
		if gauge := snap.Gauges[fmt.Sprintf("tenant.t%d.in_flight", i)]; gauge != 0 {
			t.Errorf("tenant t%d: in_flight gauge %d after drain", i, gauge)
		}
		totalShed += shed
	}
	if got := throttled[0].Load(); got != clients*perClient {
		t.Errorf("held tenant t0: %d of %d queries shed", got, clients*perClient)
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

// TestTenantIDsDoNotGrowState: a client naming 1,000 tenant ids that the
// configuration does not list must not mint per-tenant state. Every such id
// shares the default tenant's pool, so tenant metrics exist only for the
// configured tenants and "default".
func TestTenantIDsDoNotGrowState(t *testing.T) {
	eng := newTestEngine(t)
	if _, err := eng.Exec("CREATE TABLE kv (k BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	qos := serving.NewQoS(serving.TenantLimits{MaxInFlight: 4}, map[string]serving.TenantLimits{
		"dash": {},
	}, eng.Metrics())
	s := startServer(t, Config{Engine: eng, QoS: qos})
	cli := dial(t, s)
	const ids = 1000
	for i := 0; i < ids; i++ {
		if err := cli.SetTenant(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Query("SELECT COUNT(*) FROM kv"); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Metrics().Snapshot()
	seen := map[string]bool{}
	for _, names := range []map[string]int64{snap.Counters, snap.Gauges} {
		for name := range names {
			if rest, ok := strings.CutPrefix(name, "tenant."); ok {
				seen[rest[:strings.IndexByte(rest, '.')]] = true
			}
		}
	}
	if len(seen) > 2 || !seen["dash"] || !seen[serving.DefaultTenant] {
		t.Fatalf("tenant metrics for %d ids, want only dash and default", len(seen))
	}
	if got := snap.Counters["tenant.default.admitted"]; got != ids {
		t.Fatalf("tenant.default.admitted = %d, want %d", got, ids)
	}
}

// TestInFlightCapProtectsDashboard is the evidence that the tenant
// in-flight cap earns its code. Six batch clients run a heavy aggregate in
// a closed loop against a two-slot worker pool while two dashboard clients
// run a trivial statement. Capping batch at one in-flight query must cut
// the dashboard's p95 latency to at most a quarter of its uncapped value;
// a 2-vCPU VM measured about 100x.
func TestInFlightCapProtectsDashboard(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	eng := newTestEngine(t)
	loadBigTable(t, eng, 400_000)
	if _, err := eng.Exec("CREATE TABLE kv (k BIGINT, v BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("INSERT INTO kv VALUES (1, 2), (3, 4)"); err != nil {
		t.Fatal(err)
	}
	run := func(batchCap int) (dashP95 time.Duration, batchDone int64) {
		qos := serving.NewQoS(serving.TenantLimits{}, map[string]serving.TenantLimits{
			"batch": {MaxInFlight: batchCap}, "dash": {},
		}, nil)
		s := startServer(t, Config{Engine: eng, QoS: qos, MaxConcurrent: 2})
		stop := time.Now().Add(1500 * time.Millisecond)
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			lats  []time.Duration
			done  atomic.Int64
			errCh = make(chan error, 8)
		)
		client := func(tenant string, body func(*Client) error) {
			defer wg.Done()
			cli, err := Dial(s.Addr())
			if err == nil {
				defer cli.Close()
				err = cli.SetTenant(tenant)
			}
			for err == nil && time.Now().Before(stop) {
				err = body(cli)
			}
			if err != nil {
				errCh <- fmt.Errorf("%s: %w", tenant, err)
			}
		}
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go client("batch", func(cli *Client) error {
				_, err := cli.Query("SELECT COUNT(DISTINCT u) FROM data")
				if errors.Is(err, serving.ErrTenantBusy) {
					time.Sleep(time.Millisecond) // back off, then retry
					return nil
				}
				if err == nil {
					done.Add(1)
				}
				return err
			})
		}
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go client("dash", func(cli *Client) error {
				start := time.Now()
				_, err := cli.Query("SELECT COUNT(*) FROM kv")
				mu.Lock()
				lats = append(lats, time.Since(start))
				mu.Unlock()
				return err
			})
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		if len(lats) == 0 || done.Load() == 0 {
			t.Fatalf("batch cap %d: %d dashboard samples, %d batch completions", batchCap, len(lats), done.Load())
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[(len(lats)*95+99)/100-1], done.Load()
	}
	uncapped, uncappedBatch := run(0)
	capped, cappedBatch := run(1)
	t.Logf("dash p95: uncapped %v, batch capped at 1 %v (%.0fx); batch completions %d vs %d",
		uncapped, capped, float64(uncapped)/float64(capped), uncappedBatch, cappedBatch)
	if capped*4 > uncapped {
		t.Fatalf("batch cap did not protect the dashboard: p95 %v capped vs %v uncapped, want <= 1/4", capped, uncapped)
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
