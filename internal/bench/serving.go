package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"patchindex"
	"patchindex/internal/server"
	"patchindex/internal/serving"
)

// Serving measures the multi-tenant serving fast path (no paper
// counterpart): phase 1 is a repeated-query microbench comparing the same
// statements on a cold engine and a result-cache engine; phase 2 drives a
// mixed-tenant server (a high-priority "dash" tenant sharing the box with a
// rate-limited low-priority "batch" tenant) with the result cache off and
// on, reporting per-tenant p50/p95 and shed counts.
func Serving(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "== serving fast path: cache-hit latency and mixed-tenant QoS (%d rows) ==\n", cfg.Rows)
	if err := servingMicrobench(cfg, w); err != nil {
		return err
	}
	return servingMixedTenant(cfg, w)
}

// servingQueries are the repeated statements; both have a deterministic
// output order (global aggregate / ORDER BY), so they are result-cacheable.
var servingQueries = []struct{ name, sql string }{
	{"count-distinct", "SELECT COUNT(DISTINCT u) FROM data"},
	{"topk", "SELECT s FROM data ORDER BY s LIMIT 100"},
}

// servingMicrobench runs each statement repeatedly on two engines that
// differ only in whether the result cache is on and reports median
// per-statement latency plus the cache-hit speedup over the cold engine.
func servingMicrobench(cfg Config, w io.Writer) error {
	variants := []struct {
		name   string
		result bool
	}{
		{"cold", false},
		{"result-cache", true},
	}
	iters := cfg.Reps * 5
	if iters < 9 {
		iters = 9
	}

	medians := make(map[string]map[string]time.Duration) // query -> variant -> median
	for _, q := range servingQueries {
		medians[q.name] = make(map[string]time.Duration)
	}
	for _, v := range variants {
		e, err := patchindex.New(patchindex.Config{
			DefaultPartitions: cfg.Partitions,
			Parallelism:       cfg.Parallelism,
			Metrics:           cfg.Metrics,
			ResultCache:       v.result,
		})
		if err != nil {
			return err
		}
		if err := loadCustomTable(e, cfg, 0.05, 0.05); err != nil {
			e.Close()
			return err
		}
		for _, q := range servingQueries {
			// One warm-up execution populates the cache; the cold engine
			// re-executes from scratch every time regardless.
			if _, err := e.Exec(q.sql); err != nil {
				e.Close()
				return err
			}
			times := make([]time.Duration, 0, iters)
			for i := 0; i < iters; i++ {
				start := time.Now()
				if _, err := e.Exec(q.sql); err != nil {
					e.Close()
					return err
				}
				times = append(times, time.Since(start))
			}
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
			medians[q.name][v.name] = times[len(times)/2]
		}
		e.Close()
	}

	fmt.Fprintf(w, "%-16s %-12s %-12s %-10s\n", "query", "cold", "result-cache", "speedup")
	for _, q := range servingQueries {
		cold := medians[q.name]["cold"]
		cached := medians[q.name]["result-cache"]
		spd := float64(cold) / float64(cached)
		fmt.Fprintf(w, "%-16s %-12s %-12s %-10s\n", q.name,
			cold.Round(time.Microsecond), cached.Round(time.Microsecond), fmt.Sprintf("%.1fx", spd))
		cfg.record(ExpServing, q.name+"/cold", 0, ms(cold), "ms")
		cfg.record(ExpServing, q.name+"/result_cache", 0, ms(cached), "ms")
		cfg.record(ExpServing, q.name+"/speedup_result", 0, spd, "x")
	}
	return nil
}

// tenantRun is the per-tenant outcome of one mixed-tenant server pass.
type tenantRun struct {
	issued, errored int
	p50, p95        time.Duration
	shed            int64
}

// servingMixedTenant runs the mixed-tenant experiment twice — result cache
// off, result cache on — and reports per-tenant latency percentiles and
// shed counts.
func servingMixedTenant(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "\nmixed-tenant server: dash (high priority) vs batch (rate-limited, low priority)\n")
	fmt.Fprintf(w, "%-10s %-8s %-8s %-8s %-12s %-12s %-6s\n",
		"cache", "tenant", "issued", "errors", "p50", "p95", "shed")
	var p50 = map[string]map[string]time.Duration{}
	for _, cached := range []bool{false, true} {
		mode := "off"
		if cached {
			mode = "on"
		}
		runs, err := servingServerPass(cfg, cached)
		if err != nil {
			return err
		}
		p50[mode] = map[string]time.Duration{}
		for _, tenant := range []string{"dash", "batch"} {
			r := runs[tenant]
			p50[mode][tenant] = r.p50
			fmt.Fprintf(w, "%-10s %-8s %-8d %-8d %-12s %-12s %-6d\n",
				mode, tenant, r.issued, r.errored,
				r.p50.Round(time.Microsecond), r.p95.Round(time.Microsecond), r.shed)
			cfg.record(ExpServing, "server/"+mode+"/"+tenant+"/p50", 0, ms(r.p50), "ms")
			cfg.record(ExpServing, "server/"+mode+"/"+tenant+"/p95", 0, ms(r.p95), "ms")
			cfg.record(ExpServing, "server/"+mode+"/"+tenant+"/shed", 0, float64(r.shed), "count")
		}
	}
	for _, tenant := range []string{"dash", "batch"} {
		spd := float64(p50["off"][tenant]) / float64(p50["on"][tenant])
		fmt.Fprintf(w, "%s p50 with the result cache: %.1fx lower\n", tenant, spd)
		cfg.record(ExpServing, "server/"+tenant+"/p50_speedup", 0, spd, "x")
	}
	return nil
}

// servingServerPass starts one server (result cache per `cached`), hammers
// it with concurrent dash and batch clients repeating the serving queries,
// and returns per-tenant latency and shed statistics.
func servingServerPass(cfg Config, cached bool) (map[string]*tenantRun, error) {
	eng, err := patchindex.New(patchindex.Config{
		DefaultPartitions: cfg.Partitions,
		Parallelism:       cfg.Parallelism,
		ResultCache:       cached,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if err := loadCustomTable(eng, cfg, 0.05, 0.05); err != nil {
		return nil, err
	}
	qos := serving.NewQoS(serving.TenantLimits{}, map[string]serving.TenantLimits{
		"dash":  {Priority: "high"},
		"batch": {RatePerSec: 500, Burst: 25, MaxInFlight: 2, Priority: "low"},
	}, eng.Metrics())
	srv, err := server.New(server.Config{
		Addr: "127.0.0.1:0", Engine: eng, QoS: qos,
		MaxConcurrent: 4, QueueDepth: 16,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	const clientsPerTenant = 3
	perClient := cfg.Reps * 10
	if perClient < 20 {
		perClient = 20
	}
	var mu sync.Mutex
	latencies := map[string][]time.Duration{}
	errored := map[string]int{}
	var wg sync.WaitGroup
	var firstErr error
	for _, tenant := range []string{"dash", "batch"} {
		for c := 0; c < clientsPerTenant; c++ {
			wg.Add(1)
			go func(tenant string, c int) {
				defer wg.Done()
				cli, err := server.Dial(srv.Addr())
				if err == nil {
					err = cli.SetTenant(tenant)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				defer cli.Close()
				for i := 0; i < perClient; i++ {
					q := servingQueries[i%len(servingQueries)]
					start := time.Now()
					_, err := cli.Query(q.sql)
					d := time.Since(start)
					mu.Lock()
					if err != nil {
						// QoS sheds and queue-full rejections are the
						// experiment working as intended; anything else is a
						// real failure.
						if !isShed(err) && firstErr == nil {
							firstErr = fmt.Errorf("tenant %s: %w", tenant, err)
						}
						errored[tenant]++
					} else {
						latencies[tenant] = append(latencies[tenant], d)
					}
					mu.Unlock()
				}
			}(tenant, c)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	snap := eng.Metrics().Snapshot()
	runs := map[string]*tenantRun{}
	for _, tenant := range []string{"dash", "batch"} {
		lat := latencies[tenant]
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		r := &tenantRun{
			issued:  clientsPerTenant * perClient,
			errored: errored[tenant],
			shed:    snap.Counters["tenant."+tenant+".shed"],
		}
		if len(lat) > 0 {
			r.p50 = lat[len(lat)/2]
			r.p95 = lat[len(lat)*95/100]
		}
		runs[tenant] = r
	}
	return runs, nil
}

// isShed reports whether err is an expected QoS/admission rejection.
func isShed(err error) bool {
	return errors.Is(err, serving.ErrThrottled) ||
		errors.Is(err, serving.ErrTenantBusy) ||
		errors.Is(err, server.ErrServerBusy)
}
