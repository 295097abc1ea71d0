package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"patchindex"
	"patchindex/internal/discovery"
	"patchindex/internal/patch"
	"patchindex/internal/server"
	"patchindex/internal/storage"
	"patchindex/internal/vector"
)

// The dashboard workload is many small statements through the wire
// protocol: two client connections in a closed loop against an in-process
// server on loopback. Zone maps prune the time-range scans to a sliver of
// the table, so the per-statement floor dominates: parse, bind, rewrite,
// build, batch allocation and the protocol. Literals come Zipf-skewed from
// a fixed pool of parameter sets, so some statement texts repeat.

const (
	dashRows    = 1_000_000
	dashParts   = 24
	dashDimRows = 1000
	dashDimYs   = 50
	dashParams  = 256
	// tsStep spaces the timestamps: ts[i] lies in [i*tsStep, (i+1)*tsStep).
	tsStep = 4
	// Range widths in rows: the SUM range is narrow, the others wider.
	dashSumRows   = 2_000
	dashRangeRows = 20_000
	// dashTailQ is the fixed tail percentile. A run completes thousands of
	// statements, enough for p99.9, but beyond p95 the tail is a few host
	// hiccups and swings from run to run.
	dashTailQ = 0.95
)

// dashKinds is the statement mix in percent, in kind order.
var dashKinds = []struct {
	name string
	pct  int
}{{"dim_count", 40}, {"ts_sum", 30}, {"ts_top10", 20}, {"ts_distinct", 10}}

// dashParam is one parameter set: a dim year and two range starts.
type dashParam struct {
	y            int64
	sumLo, rngLo int64
}

type dashEnv struct {
	e        *patchindex.Engine
	srv      *server.Server
	clients  []*server.Client
	ts, u, v []int64
	dimY     []int64
	params   []dashParam
	// want holds the rendered answer of each kind and parameter set.
	want [][]string
}

// close stops the clients, the server and the engine, keeping the data.
func (env *dashEnv) close() {
	for _, c := range env.clients {
		c.Close()
	}
	env.clients = nil
	if env.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		env.srv.Shutdown(ctx)
		cancel()
		env.srv = nil
	}
	if env.e != nil {
		env.e.Close()
		env.e = nil
	}
}

func (env *dashEnv) sql(kind, param int) string {
	p := env.params[param]
	switch kind {
	case 0:
		return fmt.Sprintf("SELECT COUNT(*) FROM dim WHERE y = %d", p.y)
	case 1:
		return fmt.Sprintf("SELECT SUM(v) FROM events WHERE ts >= %d AND ts < %d", p.sumLo, p.sumLo+dashSumRows*tsStep)
	case 2:
		return fmt.Sprintf("SELECT ts, v FROM events WHERE ts >= %d AND ts < %d ORDER BY v DESC, ts LIMIT 10", p.rngLo, p.rngLo+dashRangeRows*tsStep)
	default:
		return fmt.Sprintf("SELECT COUNT(DISTINCT u) FROM events WHERE ts >= %d AND ts < %d", p.rngLo, p.rngLo+dashRangeRows*tsStep)
	}
}

// genDashboard generates the rows and the parameter sets.
func genDashboard(opt options) *dashEnv {
	rng := rand.New(rand.NewSource(opt.seed))
	n := opt.rows(dashRows, dashParts*100)
	env := &dashEnv{ts: make([]int64, n), u: make([]int64, n), v: make([]int64, n)}
	pool := int64(n / 100)
	for i := range env.ts {
		env.ts[i] = int64(i)*tsStep + rng.Int63n(tsStep)
		if rng.Float64() < 0.02 {
			env.u[i] = rng.Int63n(pool)
		} else {
			env.u[i] = pool + int64(i)
		}
		env.v[i] = rng.Int63n(10_000)
	}
	env.dimY = make([]int64, dashDimRows)
	for i := range env.dimY {
		env.dimY[i] = rng.Int63n(dashDimYs)
	}
	span := int64(n) * tsStep
	env.params = make([]dashParam, dashParams)
	for i := range env.params {
		env.params[i] = dashParam{
			y:     rng.Int63n(dashDimYs),
			sumLo: rng.Int63n(max(span-dashSumRows*tsStep, 1)),
			rngLo: rng.Int63n(max(span-dashRangeRows*tsStep, 1)),
		}
	}
	return env
}

// start loads the generated rows into a new engine, starts the server and
// connects the clients: the workload's set-up.
func (env *dashEnv) start() (err error) {
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if env.e, err = patchindex.New(patchindex.Config{DefaultPartitions: dashParts}); err != nil {
		return err
	}
	if err := env.load(); err != nil {
		return err
	}
	if env.srv, err = server.New(server.Config{Addr: "127.0.0.1:0", Engine: env.e}); err != nil {
		return err
	}
	if err := env.srv.Start(); err != nil {
		return err
	}
	for i := 0; i < dashClients(); i++ {
		c, err := server.Dial(env.srv.Addr())
		if err != nil {
			return err
		}
		env.clients = append(env.clients, c)
	}
	return nil
}

// dashClients is two connections, but no more than there are processors.
func dashClients() int { return min(2, runtime.NumCPU()) }

func (env *dashEnv) load() error {
	events, err := storage.NewTable("events", storage.NewSchema(
		storage.Column{Name: "ts", Typ: vector.Int64},
		storage.Column{Name: "u", Typ: vector.Int64},
		storage.Column{Name: "v", Typ: vector.Int64},
	), dashParts)
	if err != nil {
		return err
	}
	n := len(env.ts)
	per := (n + dashParts - 1) / dashParts
	for p := 0; p*per < n; p++ {
		lo, hi := p*per, min((p+1)*per, n)
		cols := []*vector.Vector{
			vector.NewFromInt64(env.ts[lo:hi]),
			vector.NewFromInt64(env.u[lo:hi]),
			vector.NewFromInt64(env.v[lo:hi]),
		}
		if err := events.AppendColumns(p, cols); err != nil {
			return err
		}
	}
	if err := events.SetSortKey("ts"); err != nil {
		return err
	}
	dim, err := storage.NewTable("dim", storage.NewSchema(
		storage.Column{Name: "id", Typ: vector.Int64},
		storage.Column{Name: "y", Typ: vector.Int64},
	), 1)
	if err != nil {
		return err
	}
	ids := make([]int64, len(env.dimY))
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := dim.AppendColumns(0, []*vector.Vector{vector.NewFromInt64(ids), vector.NewFromInt64(env.dimY)}); err != nil {
		return err
	}
	for _, t := range []*storage.Table{events, dim} {
		if err := env.e.Catalog().AddTable(t); err != nil {
			return err
		}
	}
	_, err = env.e.CreatePatchIndex("events", "u", patch.NearlyUnique, discovery.BuildOptions{Kind: patch.Auto, Threshold: 1})
	return err
}

// oracle computes every answer row by row over the generated data, using
// only that ts ascends to find where a range starts.
func (env *dashEnv) oracle() {
	env.want = make([][]string, len(dashKinds)*len(env.params))
	for k := range dashKinds {
		for i, p := range env.params {
			env.want[k*len(env.params)+i] = env.answer(k, p)
		}
	}
}

func (env *dashEnv) answer(kind int, p dashParam) []string {
	itoa := func(x int64) string { return strconv.FormatInt(x, 10) }
	if kind == 0 {
		var c int64
		for _, y := range env.dimY {
			if y == p.y {
				c++
			}
		}
		return []string{itoa(c)}
	}
	lo, width := p.rngLo, int64(dashRangeRows*tsStep)
	if kind == 1 {
		lo, width = p.sumLo, dashSumRows*tsStep
	}
	first := sort.Search(len(env.ts), func(i int) bool { return env.ts[i] >= lo })
	var sum int64
	var rows []int
	seen := map[int64]bool{}
	for i := first; i < len(env.ts) && env.ts[i] < lo+width; i++ {
		switch kind {
		case 1:
			sum += env.v[i]
		case 2:
			rows = append(rows, i)
		case 3:
			seen[env.u[i]] = true
		}
	}
	switch kind {
	case 1:
		return []string{itoa(sum)}
	case 3:
		return []string{itoa(int64(len(seen)))}
	}
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		if env.v[ra] != env.v[rb] {
			return env.v[ra] > env.v[rb]
		}
		return env.ts[ra] < env.ts[rb]
	})
	var out []string
	for _, r := range rows[:min(10, len(rows))] {
		out = append(out, itoa(env.ts[r])+","+itoa(env.v[r]))
	}
	return out
}

// matches compares a client result with the oracle's rendered answer.
func matches(res *server.ClientResult, want []string) bool {
	if len(res.Rows) != len(want) {
		return false
	}
	for i, row := range res.Rows {
		got := row[0]
		for _, c := range row[1:] {
			got += "," + c
		}
		if got != want[i] {
			return false
		}
	}
	return true
}

// dashPicker draws statements: a kind by the mix, a parameter set by Zipf.
type dashPicker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newPicker(seed int64) *dashPicker {
	rng := rand.New(rand.NewSource(seed))
	return &dashPicker{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, dashParams-1)}
}

func (p *dashPicker) next() (kind, param int) {
	x := p.rng.Intn(100)
	for k, m := range dashKinds {
		if x < m.pct {
			kind = k
			break
		}
		x -= m.pct
	}
	return kind, int(p.zipf.Uint64())
}

// clientStats is what one connection's loop measured.
type clientStats struct {
	lat       []float64
	overhead  []float64
	attempted int
	errs      []string
	failed    int
}

// clientLoop runs one connection's closed loop until the deadline.
func (env *dashEnv) clientLoop(c *server.Client, seed int64, until time.Time) clientStats {
	var st clientStats
	pick := newPicker(seed)
	for time.Now().Before(until) {
		kind, param := pick.next()
		start := time.Now()
		res, err := c.Query(env.sql(kind, param))
		d := time.Since(start)
		st.attempted++
		if err != nil || !matches(res, env.want[kind*len(env.params)+param]) {
			st.failed++
			if len(st.errs) < 4 {
				st.errs = append(st.errs, fmt.Sprintf("%s: err=%v", env.sql(kind, param), err))
			}
			continue
		}
		st.lat = append(st.lat, msOf(d))
		st.overhead = append(st.overhead, usOf(d-res.Duration))
	}
	return st
}

// runClients runs every connection's loop for the given time and merges them.
func (env *dashEnv) runClients(opt options, d time.Duration, out *outcome) (clientStats, time.Duration) {
	results := make([]clientStats, len(env.clients))
	var wg sync.WaitGroup
	start := time.Now()
	until := start.Add(d)
	for i, c := range env.clients {
		wg.Add(1)
		go func(i int, c *server.Client) {
			defer wg.Done()
			results[i] = env.clientLoop(c, opt.seed*1_000_003+int64(i)+1, until)
		}(i, c)
	}
	wg.Wait()
	active := time.Since(start)
	var all clientStats
	for _, r := range results {
		all.lat = append(all.lat, r.lat...)
		all.overhead = append(all.overhead, r.overhead...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.errs = append(out.errs, r.errs...)
	}
	return all, active
}

// checkDashboard is the untimed oracle pass: every statement text of the
// pool, once, through the first connection.
func checkDashboard(env *dashEnv, out *outcome) {
	c := env.clients[0]
	for k := range dashKinds {
		for i := range env.params {
			q := env.sql(k, i)
			res, err := c.Query(q)
			out.attempted++
			if err != nil {
				out.fail("check %s: %v", q, err)
			} else if !matches(res, env.want[k*len(env.params)+i]) {
				out.fail("check %s: got %v, want %v", q, res.Rows, env.want[k*len(env.params)+i])
			}
		}
	}
}

func runDashboard(opt options, out *outcome) error {
	env := genDashboard(opt)
	env.oracle()
	// The generated rows and the answers stay live to the end, so the heap
	// above this baseline is the engine's.
	heapBase := liveHeap()
	_, err := timedSetups(opt, out, func() (*dashEnv, error) { return env, env.start() }, (*dashEnv).close)
	defer env.close()
	if err != nil {
		return err
	}
	out.config["events_rows"] = len(env.ts)
	out.config["dim_rows"] = len(env.dimY)
	out.config["partitions"] = dashParts
	out.config["parameter_sets"] = dashParams
	out.config["zipf_s"] = 1.1
	out.config["mix_pct"] = map[string]int{"dim_count": 40, "ts_sum": 30, "ts_top10": 20, "ts_distinct": 10}
	out.config["clients"] = len(env.clients)
	out.config["loop"] = "closed"
	out.config["storage"] = "in-memory"
	out.config["cache_bytes"] = "none: in-memory tables"
	out.config["wal_flush_policy"] = "none: no WAL in memory"
	checkDashboard(env, out)
	deadline := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		return traceDashboard(opt, env, out, deadline)
	}
	all, active := env.runClients(opt, deadline, out)
	lat := latencies{ms: all.lat, active: active}
	lat.report(out, dashTailQ)
	out.metrics["heap_live_mb"] = heapAboveMB(heapBase)
	return nil
}

// untracedDrain runs one statement through the engine's API in process and
// checks its row count.
func (env *dashEnv) untracedDrain(q string, rows int64, tot *layerTotals, out *outcome) {
	t := time.Now()
	n, err := env.e.DrainWith(q, patchindex.ExecOptions{})
	tot.untraced += time.Since(t)
	out.attempted++
	if err != nil || int64(n) != rows {
		out.fail("%s: %d rows, want %d, err=%v", q, n, rows, err)
	}
}

// traceDashboard spends a third of the time on the clients, for the server
// overhead, and the rest running a fixed draw of statements in process,
// each untraced through the engine's API and traced through the layers.
func traceDashboard(opt options, env *dashEnv, out *outcome, deadline time.Duration) error {
	zeroLayer(out)
	all, _ := env.runClients(opt, deadline/3, out)
	out.metrics["server.overhead_us"] = median(all.overhead)

	pick := newPicker(opt.seed)
	type stmt struct {
		sql  string
		rows int64
	}
	stmts := make([]stmt, dashParams)
	for i := range stmts {
		k, p := pick.next()
		stmts[i] = stmt{env.sql(k, p), int64(len(env.want[k*len(env.params)+p]))}
	}
	ctx := context.Background()
	cat := env.e.Catalog()
	fired := env.e.Metrics().Counter("rewrites_fired_total")
	firedBefore := fired.Value()
	tot := newLayerTotals()
	start := time.Now()
	pairs := 0
	for ; pairs == 0 || time.Since(start) < deadline*2/3; pairs++ {
		s := stmts[pairs%len(stmts)]
		// Which of the pair runs first alternates, so neither always finds
		// the warmer caches.
		untracedFirst := pairs%2 == 0
		if untracedFirst {
			env.untracedDrain(s.sql, s.rows, tot, out)
		}
		r, err := drive(ctx, cat, s.sql, driveOpts{parallelism: 1, fired: fired})
		out.attempted++
		if err != nil || r.rows != s.rows {
			out.fail("traced %s: %d rows, want %d, err=%v", s.sql, r.rows, s.rows, err)
		} else {
			tot.add(r)
		}
		if !untracedFirst {
			env.untracedDrain(s.sql, s.rows, tot, out)
		}
	}
	for _, s := range stmts {
		if err := tot.countAllocs(ctx, cat, s.sql, false); err != nil {
			return err
		}
	}
	tot.report(out)
	out.metrics["plan.rewrites_fired"] = float64(fired.Value()-firedBefore) / float64(tot.stmts+pairs)
	return nil
}
