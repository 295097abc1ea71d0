// Command patchserver runs the patchindex engine as a network server. It
// listens on one TCP port that serves both the patchserver wire protocol
// (see internal/server/protocol; connect with `patchcli -connect`) and
// plain HTTP for /metrics, /stats (with PatchIndex health), /healthz, the
// query history at /queries, Chrome-exportable statement traces at
// /trace/<id>, the workload observatory at /workload (-workload to enable),
// per-index benefit attribution at /indexes, the self-tuner at /tuner
// (-tune to enable background tuning), the health watchdog's time-series at
// /timeseries and alerts at /alerts (-monitor to enable sampling;
// -sample-interval-ms and -alert-rules tune it), and (with -pprof)
// /debug/pprof/.
//
//	patchserver -listen :5433 -demo tpcds -rows 1000000 -trace-sample 1
//	patchcli -connect localhost:5433
//	curl localhost:5433/metrics
//	curl localhost:5433/queries
//	curl 'localhost:5433/trace/7?format=chrome' > trace.json  # chrome://tracing
//
// The server bounds concurrent query execution (-max-concurrent) with a
// bounded admission queue (-queue-depth); excess load is shed with a
// "busy" error instead of piling up. SIGINT/SIGTERM trigger a graceful
// shutdown that drains in-flight queries for up to -grace seconds.
//
// The serving fast path caches, opt-in, read-only query results keyed on
// per-table versions (-result-cache, -result-cache-mb). Per-tenant QoS caps
// each tenant's in-flight queries; it activates when -qos-inflight or a
// -tenants JSON file is given. Sessions pick their tenant with
// `\set tenant` or the wire protocol's tenant field. Tenants listed in
// -tenants get their own cap; every other id shares the "default" tenant's
// pool, capped by -qos-inflight. Per-tenant shed/admitted/in-flight
// counters surface under /metrics and /stats:
//
//	patchserver -listen :5433 -result-cache -qos-inflight 4 -tenants tenants.json
//
// where tenants.json maps tenant id to limits, e.g.
// {"batch": {"max_in_flight": 1}}; unknown fields are a startup error.
//
// Durability: -data-dir stores compressed column segments, a catalog
// manifest, the checkpointed patch sets and the WAL in one directory, and a
// restart on the same directory recovers all of it; -cache-mb bounds the
// decoded column cache, -spill-mb bounds operator memory before
// Sort/HashJoin spill to disk, and -checkpoint-interval runs background
// checkpoints (manual CHECKPOINT always works):
//
//	patchserver -listen :5433 -data-dir /var/lib/patchindex -cache-mb 512 -spill-mb 256 -checkpoint-interval 60
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"patchindex"
	"patchindex/internal/datagen"
	"patchindex/internal/obs"
	"patchindex/internal/server"
	"patchindex/internal/serving"
	"patchindex/internal/tuning"
)

func main() {
	listen := flag.String("listen", ":5433", "TCP listen address (wire protocol + HTTP)")
	demo := flag.String("demo", "", "preload dataset: tpcds or custom")
	rows := flag.Int("rows", 1_000_000, "rows for -demo custom / sales rows for -demo tpcds")
	partitions := flag.Int("partitions", 8, "partitions for preloaded tables")
	uniqueRate := flag.Float64("unique-rate", 0.05, "uniqueness exception rate for -demo custom")
	sortedRate := flag.Float64("sorted-rate", 0.05, "sortedness exception rate for -demo custom")
	dataDir := flag.String("data-dir", "", "data directory for durability: compressed column segments, manifest, WAL (checkpoints save patch sets)")
	cacheMB := flag.Int("cache-mb", 0, "column cache byte budget in MB for -data-dir mode (0 = unlimited)")
	spillMB := flag.Int("spill-mb", 0, "per-operator memory budget in MB before Sort/HashJoin spill to disk (0 = never spill)")
	checkpointInterval := flag.Int("checkpoint-interval", 0, "seconds between background checkpoints in -data-dir mode (0 = manual CHECKPOINT only)")
	parallelism := flag.Int("parallelism", 0, "degree of intra-query parallelism (0 = serial, >1 = bounded worker pool)")
	slowMS := flag.Int("slow-ms", 0, "log statements slower than this many milliseconds")
	maxConcurrent := flag.Int("max-concurrent", 0, "max queries executing at once (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 64, "max queries waiting for a slot before shedding")
	timeoutMS := flag.Int("timeout-ms", 0, "default per-query timeout in ms (0 = none; sessions can override)")
	maxRows := flag.Int("max-rows", 0, "default result-set clip (0 = unlimited; sessions can override)")
	grace := flag.Int("grace", 10, "graceful-shutdown drain window in seconds")
	traceSample := flag.Int("trace-sample", 0, "trace every Nth statement (0 = off; clients can still request traces per statement)")
	traceHistory := flag.Int("trace-history", 0, "completed-query profiles kept for /queries and /trace/<id> (0 = default 128)")
	workload := flag.Bool("workload", false, "enable the workload observatory (/workload, /indexes benefit attribution)")
	workloadFPs := flag.Int("workload-fingerprints", 0, "max statement fingerprints tracked by the workload observatory (0 = default 256)")
	tune := flag.Bool("tune", false, "start the background self-tuner (implies -workload; ALTER TUNER / \\tune control it at runtime)")
	tuneIntervalMS := flag.Int("tune-interval-ms", 0, "self-tuner cycle interval in ms (0 = default 2000)")
	monitor := flag.Bool("monitor", false, "start the health watchdog sampler (/timeseries, /alerts, SHOW ALERTS)")
	sampleIntervalMS := flag.Int("sample-interval-ms", 0, "watchdog sampling interval in ms (0 = default 1000)")
	alertRules := flag.String("alert-rules", "", "JSON file of alert rules overriding the built-in watchdog rules")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	resultCache := flag.Bool("result-cache", false, "cache read-only deterministic-order results keyed on table versions")
	resultCacheMB := flag.Int("result-cache-mb", 0, "result cache byte budget in MB (0 = default 32)")
	qosInFlight := flag.Int("qos-inflight", 0, "in-flight query cap shared by all tenants not listed in -tenants (0 = unlimited)")
	tenantsFile := flag.String("tenants", "", "JSON file mapping tenant id -> QoS limits ({\"max_in_flight\": N})")
	flag.Parse()

	var rules []obs.Rule
	if *alertRules != "" {
		var err error
		if rules, err = obs.LoadRules(*alertRules); err != nil {
			fatal(err)
		}
	}

	eng, err := patchindex.New(patchindex.Config{
		DefaultPartitions:    *partitions,
		Parallelism:          *parallelism,
		DataDir:              *dataDir,
		CacheBytes:           int64(*cacheMB) << 20,
		SpillBytes:           int64(*spillMB) << 20,
		SlowQueryThreshold:   time.Duration(*slowMS) * time.Millisecond,
		TraceSample:          *traceSample,
		TraceHistory:         *traceHistory,
		WorkloadProfile:      *workload,
		WorkloadFingerprints: *workloadFPs,
		AutoTune:             *tune,
		Tuning:               tuning.Config{Interval: time.Duration(*tuneIntervalMS) * time.Millisecond},
		Monitor:              *monitor,
		SampleInterval:       time.Duration(*sampleIntervalMS) * time.Millisecond,
		AlertRules:           rules,
		ResultCache:          *resultCache,
		ResultCacheBytes:     int64(*resultCacheMB) << 20,
	})
	if err != nil {
		fatal(err)
	}
	defer eng.Close()

	var qos *serving.QoS
	var overrides map[string]serving.TenantLimits
	if *tenantsFile != "" {
		data, err := os.ReadFile(*tenantsFile)
		if err != nil {
			fatal(err)
		}
		if overrides, err = serving.ParseTenants(data); err != nil {
			fatal(fmt.Errorf("-tenants %s: %w", *tenantsFile, err))
		}
	}
	if *qosInFlight > 0 || *tenantsFile != "" {
		qos = serving.NewQoS(serving.TenantLimits{MaxInFlight: *qosInFlight}, overrides, eng.Metrics())
	}

	if err := loadDemo(eng, *demo, *rows, *partitions, *uniqueRate, *sortedRate); err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		if rec := eng.Recovery(); rec.ManifestTables > 0 || rec.ReplayedRecords > 0 {
			fmt.Fprintf(os.Stderr, "recovered %d table(s) from manifest, replayed %d WAL record(s) (%d rows) in %s\n",
				rec.ManifestTables, rec.ReplayedRecords, rec.ReplayedRows, rec.Duration.Round(time.Millisecond))
		}
		if *checkpointInterval > 0 {
			stopCkpt := eng.StartCheckpointer(time.Duration(*checkpointInterval) * time.Second)
			defer stopCkpt()
		}
	}

	srv, err := server.New(server.Config{
		Addr:           *listen,
		Engine:         eng,
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		DefaultTimeout: time.Duration(*timeoutMS) * time.Millisecond,
		DefaultMaxRows: *maxRows,
		EnablePprof:    *enablePprof,
		QoS:            qos,
	})
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "patchserver listening on %s (wire protocol + HTTP /metrics /stats /healthz /queries /trace/<id> /workload /indexes /tuner /timeseries /alerts)\n", srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintf(os.Stderr, "patchserver: shutting down (draining up to %ds)...\n", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*grace)*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "patchserver: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "patchserver: bye")
}

// loadDemo preloads the same demo datasets patchcli offers.
func loadDemo(eng *patchindex.Engine, demo string, rows, partitions int, uniqueRate, sortedRate float64) error {
	switch demo {
	case "":
		return nil
	case "tpcds":
		cfg := datagen.TPCDSConfig{
			CustomerRows: rows / 8,
			SalesRows:    rows,
			Partitions:   partitions,
			Seed:         1,
		}
		fmt.Fprintf(os.Stderr, "loading tpcds-lite (customer=%d, catalog_sales=%d, date_dim=%d)...\n",
			cfg.CustomerRows, cfg.SalesRows, datagen.DateDimRows)
		cust, err := datagen.GenCustomer(cfg)
		if err != nil {
			return err
		}
		if err := eng.Catalog().AddTable(cust); err != nil {
			return err
		}
		sales, err := datagen.GenCatalogSales(cfg)
		if err != nil {
			return err
		}
		if err := eng.Catalog().AddTable(sales); err != nil {
			return err
		}
		dates, err := datagen.GenDateDim()
		if err != nil {
			return err
		}
		return eng.Catalog().AddTable(dates)
	case "custom":
		fmt.Fprintf(os.Stderr, "loading custom table data(u,s,payload) with %d rows...\n", rows)
		t, err := datagen.LoadCustom("data", rows, partitions, uniqueRate, sortedRate, 1)
		if err != nil {
			return err
		}
		return eng.Catalog().AddTable(t)
	default:
		return fmt.Errorf("unknown demo %q (tpcds, custom)", demo)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "patchserver: %v\n", err)
	os.Exit(1)
}
