package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"patchindex"
	"patchindex/internal/datagen"
	"patchindex/internal/discovery"
	"patchindex/internal/patch"
	"patchindex/internal/storage"
)

// The paper-queries workload is the paper's own traffic: the Figure 4
// distinct and the Figure 5 sort over the custom dataset at three exception
// rates, the Table I distincts over a scaled customer table and the
// §VII-A1 NSC join. A single client runs the fixed statement list in a
// closed loop, each statement once with the PatchIndex rewrites on and once
// with them off.

// fig5Rates are the exception rates (percent) of the custom datasets. 90 %
// keeps a case where the sort rewrite does not pay.
var fig5Rates = []int{0, 50, 90}

// fig5Metric names a Figure 5 attribution metric: an operator kind's self
// time in the rewritten sort, or the plain "on"/"off" statement latency.
func fig5Metric(rate int, part string) string {
	if part == "on" || part == "off" {
		return fmt.Sprintf("fig5.r%d.%s_ms", rate, part)
	}
	return fmt.Sprintf("fig5.r%d.%s.self_ms", rate, part)
}

const (
	paperRows      = 1_000_000
	paperCustomers = 500_000
	paperParts     = 24
	// paperTailQ is the fixed tail percentile: a full-size run completes
	// several passes of 18 statements, and from three passes on at least 10
	// samples lie beyond p75.
	paperTailQ = 0.75
)

type paperStmt struct {
	name    string
	sql     string
	ordered bool
	rate    int // Figure 5 exception rate, -1 for other statements
}

type paperEnv struct {
	e           *patchindex.Engine
	parallelism int
	stmts       []paperStmt
	buildTime   time.Duration
	indexBytes  int
	// want is each statement's answer, set by the check pass.
	want map[string]paperAnswer
}

// paperAnswer is a statement's answer as the check pass found it: the row
// count and checksum, and for the single-row statements the rendered row.
type paperAnswer struct {
	rows  int64
	sum   uint64
	value string
}

func paperStatements() []paperStmt {
	var ss []paperStmt
	for _, r := range fig5Rates {
		ss = append(ss,
			paperStmt{name: fmt.Sprintf("fig4.r%d", r), sql: fmt.Sprintf("SELECT COUNT(DISTINCT u) FROM data%d", r), rate: -1},
			paperStmt{name: fmt.Sprintf("fig5.r%d", r), sql: fmt.Sprintf("SELECT s FROM data%d ORDER BY s", r), ordered: true, rate: r})
	}
	return append(ss,
		paperStmt{name: "table1.email", sql: "SELECT COUNT(DISTINCT c_email_address) FROM customer", rate: -1},
		paperStmt{name: "table1.addr", sql: "SELECT COUNT(DISTINCT c_current_addr_sk) FROM customer", rate: -1},
		paperStmt{name: "nsc.join", sql: "SELECT COUNT(*) FROM date_dim JOIN catalog_sales ON d_date_sk = cs_sold_date_sk", rate: -1})
}

func setupPaper(opt options) (env *paperEnv, err error) {
	env = &paperEnv{parallelism: min(2, runtime.NumCPU()), stmts: paperStatements(), want: map[string]paperAnswer{}}
	e, err := patchindex.New(patchindex.Config{DefaultPartitions: paperParts, Parallelism: env.parallelism})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	env.e = e
	add := func(t *storage.Table, err error) error {
		if err != nil {
			return err
		}
		return e.Catalog().AddTable(t)
	}
	index := func(table, col string, c patch.Constraint) error {
		start := time.Now()
		ix, err := e.CreatePatchIndex(table, col, c, discovery.BuildOptions{Kind: patch.Auto, Threshold: 1})
		if err != nil {
			return fmt.Errorf("index %s.%s: %w", table, col, err)
		}
		env.buildTime += time.Since(start)
		env.indexBytes += ix.MemoryBytes()
		return nil
	}
	rows := opt.rows(paperRows, paperParts*100)
	for i, r := range fig5Rates {
		name := fmt.Sprintf("data%d", r)
		rate := float64(r) / 100
		if err := add(datagen.LoadCustom(name, rows, paperParts, rate, rate, opt.seed+int64(i)*1_000_003)); err != nil {
			return nil, err
		}
		if err := index(name, "u", patch.NearlyUnique); err != nil {
			return nil, err
		}
		if err := index(name, "s", patch.NearlySorted); err != nil {
			return nil, err
		}
	}
	tpc := datagen.TPCDSConfig{CustomerRows: opt.rows(paperCustomers, paperParts*100), SalesRows: rows, Partitions: paperParts, Seed: opt.seed}
	if err := add(datagen.GenCustomer(tpc)); err != nil {
		return nil, err
	}
	// Table I: c_email_address has a PatchIndex, c_current_addr_sk (86.5 %
	// exceptions) has none, so its statement is a control.
	if err := index("customer", "c_email_address", patch.NearlyUnique); err != nil {
		return nil, err
	}
	if err := add(datagen.GenCatalogSales(tpc)); err != nil {
		return nil, err
	}
	if err := add(datagen.GenDateDim()); err != nil {
		return nil, err
	}
	if err := index("catalog_sales", "cs_sold_date_sk", patch.NearlySorted); err != nil {
		return nil, err
	}
	return env, nil
}

// checkPaper is the untimed answer oracle: every statement's rewritten
// output must equal its plain output by row count and checksum, and sort
// output must be ascending in both plans. It records each answer, with the
// rendered row of the single-row statements, for the later phases.
func checkPaper(env *paperEnv, out *outcome) error {
	ctx := context.Background()
	for _, s := range env.stmts {
		var runs [2]layerRun
		for i, off := range []bool{false, true} {
			r, err := drive(ctx, env.e.Catalog(), s.sql, driveOpts{disableRewrites: off, parallelism: env.parallelism, check: true, ordered: s.ordered})
			if err != nil {
				return err
			}
			out.attempted++
			if r.outOfOrder > 0 {
				out.fail("check %s (rewrites off=%v): %d rows out of order", s.name, off, r.outOfOrder)
			}
			runs[i] = r
		}
		if runs[0].rows != runs[1].rows || runs[0].sum != runs[1].sum {
			out.fail("check %s: rewrites on gave %d rows (sum %x), off gave %d rows (sum %x)",
				s.name, runs[0].rows, runs[0].sum, runs[1].rows, runs[1].sum)
		}
		want := paperAnswer{rows: runs[1].rows, sum: runs[1].sum}
		if !s.ordered {
			res, err := env.e.ExecWith(s.sql, patchindex.ExecOptions{DisablePatchRewrites: true})
			if err != nil {
				return err
			}
			want.value = render(res)
		}
		env.want[s.name] = want
	}
	return nil
}

// runStmt runs one statement untraced through the engine's API and checks
// it: a sort by its row count (its output is drained, not kept), a
// single-row statement by its value.
func (env *paperEnv) runStmt(s paperStmt, off bool, out *outcome) (time.Duration, bool) {
	opts := patchindex.ExecOptions{DisablePatchRewrites: off}
	var n int
	var res *patchindex.Result
	var err error
	start := time.Now()
	if s.ordered {
		n, err = env.e.DrainWith(s.sql, opts)
	} else {
		res, err = env.e.ExecWith(s.sql, opts)
	}
	d := time.Since(start)
	out.attempted++
	want := env.want[s.name]
	var value string
	if res != nil {
		n, value = len(res.Rows), render(res)
	}
	switch {
	case err != nil:
		out.fail("%s (rewrites off=%v): %v", s.name, off, err)
		return d, false
	case int64(n) != want.rows || value != want.value:
		out.fail("%s (rewrites off=%v): %d rows %q, want %d rows %q", s.name, off, n, value, want.rows, want.value)
		return d, false
	}
	return d, true
}

func runPaper(opt options, out *outcome) error {
	// The engine generates the tables itself, so the benchmark holds no
	// data of its own when the heap baseline is taken.
	heapBase := liveHeap()
	env, err := timedSetups(opt, out, func() (*paperEnv, error) { return setupPaper(opt) },
		func(env *paperEnv) { env.e.Close() })
	if err != nil {
		return err
	}
	defer env.e.Close()
	rows := opt.rows(paperRows, paperParts*100)
	out.config["custom_rows_per_rate"] = rows
	out.config["exception_rates_pct"] = fig5Rates
	out.config["customer_rows"] = opt.rows(paperCustomers, paperParts*100)
	out.config["catalog_sales_rows"] = rows
	out.config["partitions"] = paperParts
	out.config["parallelism"] = env.parallelism
	out.config["clients"] = 1
	out.config["loop"] = "closed"
	out.config["storage"] = "in-memory"
	out.config["cache_bytes"] = "none: in-memory tables"
	out.config["wal_flush_policy"] = "none: no WAL in memory"
	if err := checkPaper(env, out); err != nil {
		return err
	}
	if opt.trace {
		return tracePaper(opt, env, out)
	}

	var lat latencies
	perStmt := map[string][]float64{}
	deadline := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	for passes := 0; passes == 0 || time.Since(start) < deadline; passes++ {
		for _, s := range env.stmts {
			for _, off := range []bool{false, true} {
				if d, ok := env.runStmt(s, off, out); ok {
					lat.add(d)
					key := fmt.Sprintf("%s/off=%v", s.name, off)
					perStmt[key] = append(perStmt[key], msOf(d))
				}
			}
		}
	}
	lat.active = time.Since(start)
	lat.report(out, paperTailQ)
	// The pooled median of a fixed list of 18 unlike statements falls
	// between the 9th and 10th slowest, where it jumps; the typical
	// statement latency is the geometric mean of the per-statement medians.
	var medians []float64
	for _, xs := range perStmt {
		medians = append(medians, median(xs))
	}
	out.metrics["stmt_p50_ms"] = geomean(medians)
	out.config["stmt_p50_definition"] = "geometric mean of per-statement medians"
	out.metrics["heap_live_mb"] = heapAboveMB(heapBase)
	return nil
}

// tracePaper runs every statement untraced through the engine's API and
// traced through the layers, pair after pair, until the time is up; the
// pairs give the tracing overhead, the untraced runs the rewrite gain.
func tracePaper(opt options, env *paperEnv, out *outcome) error {
	zeroLayer(out)
	ctx := context.Background()
	cat := env.e.Catalog()
	fired := env.e.Metrics().Counter("rewrites_fired_total")
	firedBefore := fired.Value()
	tot := newLayerTotals()
	lat := map[string][2][]float64{}
	fig5 := map[string]time.Duration{}
	fig5Runs := map[int]int{}
	untracedStmts := 0
	deadline := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	untraced := func(s paperStmt, i int, off bool) {
		d, ok := env.runStmt(s, off, out)
		untracedStmts++
		if ok {
			tot.untraced += d
			l := lat[s.name]
			l[i] = append(l[i], msOf(d))
			lat[s.name] = l
		}
	}
	// A traced sort is checked by its row count. The single-row
	// statements are consumed into a checksum, which for one row costs
	// what exec.DrainContext does, and checked by it.
	traced := func(s paperStmt, off bool) {
		r, err := drive(ctx, cat, s.sql, driveOpts{disableRewrites: off, parallelism: env.parallelism, fired: fired, check: !s.ordered})
		out.attempted++
		if err != nil {
			out.fail("traced %s: %v", s.name, err)
			return
		}
		want := env.want[s.name]
		if r.rows != want.rows || (!s.ordered && r.sum != want.sum) {
			out.fail("traced %s (rewrites off=%v): %d rows (sum %x), want %d (sum %x)", s.name, off, r.rows, r.sum, want.rows, want.sum)
		}
		tot.add(r)
		if s.rate >= 0 && !off {
			fig5Runs[s.rate]++
			for _, k := range fig5Kinds {
				fig5[fig5Metric(s.rate, k)] += r.tree.self[k]
			}
		}
	}
	pairs := 0
	for passes := 0; passes == 0 || time.Since(start) < deadline; passes++ {
		for _, s := range env.stmts {
			for i, off := range []bool{false, true} {
				// Which of the pair runs first alternates, so neither always
				// finds the warmer caches.
				pairs++
				if pairs%2 == 0 {
					traced(s, off)
					untraced(s, i, off)
				} else {
					untraced(s, i, off)
					traced(s, off)
				}
			}
		}
	}
	for _, s := range env.stmts {
		for _, off := range []bool{false, true} {
			if err := tot.countAllocs(ctx, cat, s.sql, off); err != nil {
				return err
			}
		}
	}
	tot.report(out)
	out.metrics["plan.rewrites_fired"] = float64(fired.Value()-firedBefore) / float64(tot.stmts+untracedStmts)
	var gains []float64
	for _, s := range env.stmts {
		on, off := median(lat[s.name][0]), median(lat[s.name][1])
		if on > 0 && off > 0 {
			gains = append(gains, off/on)
		}
		if s.rate >= 0 {
			out.metrics[fig5Metric(s.rate, "on")] = on
			out.metrics[fig5Metric(s.rate, "off")] = off
		}
	}
	out.metrics["plan.rewrite_gain"] = geomean(gains)
	for _, r := range fig5Rates {
		for _, k := range fig5Kinds {
			name := fig5Metric(r, k)
			out.metrics[name] = msOf(fig5[name]) / float64(max(fig5Runs[r], 1))
		}
	}
	out.metrics["discovery.build_ms"] = msOf(env.buildTime)
	out.metrics["patch.index_bytes"] = float64(env.indexBytes)
	return nil
}
