package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"patchindex"
	"patchindex/internal/discovery"
	"patchindex/internal/obs"
	"patchindex/internal/patch"
	"patchindex/internal/vector"
)

// The ingest-durable workload measures writes beside reads on a durable
// engine whose data does not fit its cache. Set-up leaves a checkpointed
// table with NUC and NSC indexes in a base directory. Each round copies it,
// opens it and, from one client, appends batches to the hot partitions with
// a cold selective read and a COUNT(DISTINCT) every few appends and a
// CHECKPOINT part way. It ends on an uncheckpointed suffix: close, reopen
// and the first indexed query, which is the restart. Rounds repeat until the
// time is up. The WAL flush policy is the engine's default, one fsync per
// logged record.

const (
	ingestRows      = 1_000_000
	ingestParts     = 16
	ingestHot       = 4 // appends go to the last ingestHot partitions
	ingestBatch     = 8192
	ingestCkptAfter = 64 // appends before the round's CHECKPOINT
	ingestAppends   = 80 // appends per round; the last 16 are the replayed suffix
	ingestReadEvery = 8
	// Exception shares of the generated values: duplicates of u, late
	// (out-of-order) values of s.
	ingestDupRate  = 0.05
	ingestLateRate = 0.05
	// sStep spaces s like a clock; a late value is up to ingestLateBy behind.
	sStep        = 4
	ingestLateBy = 2000
	// ingestReadRows is the width of the selective read in rows at full
	// scale; like the batches, it scales with the table.
	ingestReadRows = 2000
	// ingestTailQ is the fixed tail percentile: a round is about 100
	// operations, so a run of several rounds leaves 10 or more beyond p95.
	ingestTailQ = 0.95
	ingestTable = "data"
)

const distinctQuery = "SELECT COUNT(DISTINCT u) FROM data"

// ingestBatchData is one pre-generated append.
type ingestBatchData struct {
	part  int
	cols  []*vector.Vector
	fresh int64 // u values in it not present before
}

type ingestEnv struct {
	base string // checkpointed base directory
	// u, s, payload hold every base row, in partition order, until the
	// set-ups have loaded them; the oracle keeps only the answers below.
	u, s, payload []int64
	baseRows      int
	baseDistinct  int64
	batches       []ingestBatchData
	readRows      int      // width of the selective read in rows
	readLo        []int64  // selective read starts, one per read point
	readWant      []string // the selective reads' answers
	totalsWant    string   // totalsAnswer after every append
	cacheBytes    int64
	batchRows     int
	buildTime     time.Duration
}

// genIngest generates the base rows, the appends and the reads, and
// computes the answers the oracle needs.
func genIngest(opt options) *ingestEnv {
	env := &ingestEnv{}
	env.u, env.s, env.payload = genBase(opt)
	env.baseRows = len(env.u)
	env.prepare(opt)
	for i, lo := range env.readLo {
		env.readWant = append(env.readWant, env.selectiveAnswer(lo, (i+1)*ingestReadEvery))
	}
	env.totalsWant = env.totalsAnswer()
	return env
}

// genBase generates the base rows: s ascends like a clock with late values,
// u is unique apart from duplicates of earlier values.
func genBase(opt options) (u, s, payload []int64) {
	rng := rand.New(rand.NewSource(opt.seed))
	n := opt.rows(ingestRows, ingestParts*100)
	u, s, payload = make([]int64, n), make([]int64, n), make([]int64, n)
	for i := 0; i < n; i++ {
		u[i] = int64(n) + int64(i)
		if i > 0 && rng.Float64() < ingestDupRate {
			u[i] = u[rng.Intn(i)]
		}
		s[i] = int64(i)*sStep + rng.Int63n(sStep)
		if rng.Float64() < ingestLateRate {
			s[i] -= rng.Int63n(ingestLateBy)
		}
		payload[i] = rng.Int63n(1000)
	}
	return u, s, payload
}

// partRange is the slice of base rows partition p holds.
func partRange(n, p int) (lo, hi int) {
	per := (n + ingestParts - 1) / ingestParts
	return min(p*per, n), min((p+1)*per, n)
}

func openDurable(dir string, cacheBytes int64, reg *obs.Registry) (*patchindex.Engine, error) {
	return patchindex.New(patchindex.Config{DataDir: dir, CacheBytes: cacheBytes, DefaultPartitions: ingestParts, Metrics: reg})
}

// writeBase loads the base rows into a new durable engine in its own
// directory, indexes and checkpoints them: the workload's set-up.
func (env *ingestEnv) writeBase(opt options, rep int) error {
	env.base = filepath.Join(opt.dir, fmt.Sprintf("base%d", rep))
	e, err := openDurable(env.base, 0, nil)
	if err != nil {
		return err
	}
	err = env.load(e)
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	return err
}

func (env *ingestEnv) load(e *patchindex.Engine) error {
	if _, err := e.Exec("CREATE TABLE data (u BIGINT, s BIGINT, payload BIGINT)"); err != nil {
		return err
	}
	n := len(env.u)
	for p := 0; p < ingestParts; p++ {
		lo, hi := partRange(n, p)
		cols := []*vector.Vector{
			vector.NewFromInt64(env.u[lo:hi]),
			vector.NewFromInt64(env.s[lo:hi]),
			vector.NewFromInt64(env.payload[lo:hi]),
		}
		if err := e.LoadColumns(ingestTable, p, cols); err != nil {
			return err
		}
	}
	start := time.Now()
	for _, ix := range []struct {
		col string
		c   patch.Constraint
	}{{"u", patch.NearlyUnique}, {"s", patch.NearlySorted}} {
		if _, err := e.CreatePatchIndex(ingestTable, ix.col, ix.c, discovery.BuildOptions{Kind: patch.Auto, Threshold: 1}); err != nil {
			return err
		}
	}
	env.buildTime = time.Since(start)
	t, err := e.Catalog().Table(ingestTable)
	if err != nil {
		return err
	}
	env.cacheBytes = t.RawBytes() / 4
	_, err = e.Checkpoint()
	return err
}

// prepare generates the appends and read parameters every round replays,
// and the base's distinct count for the oracle.
func (env *ingestEnv) prepare(opt options) {
	seen := make(map[int64]struct{}, len(env.u))
	for _, x := range env.u {
		seen[x] = struct{}{}
	}
	env.baseDistinct = int64(len(seen))
	rng := rand.New(rand.NewSource(opt.seed + 7))
	n := int64(len(env.u))
	env.batchRows = opt.rows(ingestBatch, 64)
	env.readRows = opt.rows(ingestReadRows, 16)
	nextU := 3 * n // above every base value
	clock := n     // appended s continue after the base
	for i := 0; i < ingestAppends; i++ {
		b := ingestBatchData{part: ingestParts - ingestHot + i%ingestHot}
		u, s, pay := make([]int64, env.batchRows), make([]int64, env.batchRows), make([]int64, env.batchRows)
		for j := range u {
			if rng.Float64() < ingestDupRate {
				u[j] = env.u[rng.Int63n(n)]
			} else {
				u[j] = nextU
				nextU++
				b.fresh++
			}
			s[j] = clock*sStep + rng.Int63n(sStep)
			clock++
			if rng.Float64() < ingestLateRate {
				s[j] -= rng.Int63n(ingestLateBy)
			}
			pay[j] = rng.Int63n(1000)
		}
		b.cols = []*vector.Vector{vector.NewFromInt64(u), vector.NewFromInt64(s), vector.NewFromInt64(pay)}
		env.batches = append(env.batches, b)
	}
	for i := 0; i < ingestAppends/ingestReadEvery; i++ {
		env.readLo = append(env.readLo, rng.Int63n(max((n-int64(env.readRows))*sStep, 1)))
	}
}

func (env *ingestEnv) selectiveQuery(lo int64) string {
	return fmt.Sprintf("SELECT COUNT(*), SUM(payload) FROM data WHERE s >= %d AND s < %d", lo, lo+int64(env.readRows)*sStep)
}

// selectiveAnswer is the oracle for a selective read after `appended`
// batches, computed row by row.
func (env *ingestEnv) selectiveAnswer(lo int64, appended int) string {
	hi := lo + int64(env.readRows)*sStep
	var count, sum int64
	for i, s := range env.s {
		if s >= lo && s < hi {
			count++
			sum += env.payload[i]
		}
	}
	for _, b := range env.batches[:appended] {
		for j, s := range b.cols[1].I64 {
			if s >= lo && s < hi {
				count++
				sum += b.cols[2].I64[j]
			}
		}
	}
	if count == 0 {
		return "0,NULL"
	}
	return fmt.Sprintf("%d,%d", count, sum)
}

func (env *ingestEnv) distinctAnswer(appended int) string {
	d := env.baseDistinct
	for _, b := range env.batches[:appended] {
		d += b.fresh
	}
	return strconv.FormatInt(d, 10)
}

// totalsAnswer is COUNT(*), SUM(u), SUM(s), SUM(payload) after every append.
func (env *ingestEnv) totalsAnswer() string {
	var c, su, ss, sp int64
	add := func(u, s, p []int64) {
		for i := range u {
			c++
			su += u[i]
			ss += s[i]
			sp += p[i]
		}
	}
	add(env.u, env.s, env.payload)
	for _, b := range env.batches {
		add(b.cols[0].I64, b.cols[1].I64, b.cols[2].I64)
	}
	return fmt.Sprintf("%d,%d,%d,%d", c, su, ss, sp)
}

func render(res *patchindex.Result) string {
	var parts []string
	for _, row := range res.Rows {
		for _, v := range row {
			parts = append(parts, v.String())
		}
	}
	return strings.Join(parts, ",")
}

// copyTree copies the regular files of src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// diskBytes sums the segment files and WAL generations under dir.
func diskBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasSuffix(name, ".seg") || (strings.HasPrefix(name, "wal.") && strings.HasSuffix(name, ".log")) {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// roundStats accumulates what the rounds measured.
type roundStats struct {
	lat                       latencies
	appendMs, ckptMs, restart []float64
	appendTime                time.Duration
	appendedRows              int64
	heapMB, bytesPerUser      []float64
	ckptBytes, compress       []float64
	recoveryMs, replayed      []float64
	hits, misses, evictions   int64
	rounds                    int
	tot                       *layerTotals // traced reads, trace mode only
}

// read is one read statement issued during a round, checked afterwards.
type read struct {
	sql, got, want string
	appended       int
}

// round runs one round. It returns the reads to check and the reopened
// engine, which the caller checks and closes.
func (env *ingestEnv) round(opt options, reg *obs.Registry, rs *roundStats, out *outcome) ([]read, *patchindex.Engine, error) {
	work := filepath.Join(opt.dir, "work")
	if err := os.RemoveAll(work); err != nil {
		return nil, nil, err
	}
	if err := copyTree(env.base, work); err != nil {
		return nil, nil, err
	}
	e, err := openDurable(work, env.cacheBytes, reg)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	var reads []read
	// op times one operation from outside the engine.
	op := func(f func() error) (time.Duration, error) {
		start := time.Now()
		err := f()
		d := time.Since(start)
		out.attempted++
		if err != nil {
			out.fail("%v", err)
			return d, err
		}
		rs.lat.add(d)
		return d, nil
	}
	query := func(q string, r read) error {
		// Traced runs drive the statement through the layers as well; the
		// pair gives the overhead. Which of the two runs first alternates,
		// since the first finds the colder cache.
		traceFirst := len(reads)%2 == 1
		var tr layerRun
		traced := func() (err error) {
			if rs.tot != nil {
				tr, err = drive(ctx, e.Catalog(), q, driveOpts{parallelism: 1})
			}
			return err
		}
		if traceFirst {
			if err := traced(); err != nil {
				return err
			}
		}
		var res *patchindex.Result
		d, err := op(func() (err error) { res, err = e.Query(q); return err })
		if err != nil {
			return err
		}
		if !traceFirst {
			if err := traced(); err != nil {
				return err
			}
		}
		r.sql, r.got = q, render(res)
		reads = append(reads, r)
		if rs.tot != nil {
			rs.tot.add(tr)
			rs.tot.untraced += d
		}
		return nil
	}
	start := time.Now()
	for i, b := range env.batches {
		d, err := op(func() error { return e.Append(ingestTable, b.part, b.cols) })
		if err != nil {
			e.Close()
			return nil, nil, err
		}
		rs.appendMs = append(rs.appendMs, msOf(d))
		rs.appendTime += d
		rs.appendedRows += int64(b.cols[0].Len())
		if (i+1)%ingestReadEvery == 0 {
			point := i / ingestReadEvery
			if err := query(env.selectiveQuery(env.readLo[point]), read{appended: i + 1, want: env.readWant[point]}); err != nil {
				e.Close()
				return nil, nil, err
			}
			if err := query(distinctQuery, read{appended: i + 1, want: env.distinctAnswer(i + 1)}); err != nil {
				e.Close()
				return nil, nil, err
			}
		}
		if i+1 == ingestCkptAfter {
			var st patchindex.CheckpointStats
			d, err := op(func() (err error) { st, err = e.Checkpoint(); return err })
			if err != nil {
				e.Close()
				return nil, nil, err
			}
			rs.ckptMs = append(rs.ckptMs, msOf(d))
			rs.ckptBytes = append(rs.ckptBytes, float64(st.SegmentBytes))
			if t, err := e.Catalog().Table(ingestTable); err == nil && t.CompressedBytes() > 0 {
				rs.compress = append(rs.compress, float64(t.RawBytes())/float64(t.CompressedBytes()))
			}
		}
	}
	cs := e.Cache().Stats()
	rs.hits += cs.Hits
	rs.misses += cs.Misses
	rs.evictions += cs.Evictions
	// Restart: close with the suffix uncheckpointed, reopen, answer the
	// first indexed query.
	var e2 *patchindex.Engine
	d, err := op(func() error {
		if err := e.Close(); err != nil {
			return err
		}
		var err error
		if e2, err = openDurable(work, env.cacheBytes, reg); err != nil {
			return err
		}
		res, err := e2.Query(distinctQuery)
		if err == nil {
			reads = append(reads, read{sql: distinctQuery, got: render(res), want: env.distinctAnswer(len(env.batches)), appended: len(env.batches)})
		}
		return err
	})
	if err != nil {
		if e2 != nil {
			e2.Close()
		}
		return nil, nil, err
	}
	rs.restart = append(rs.restart, msOf(d))
	rs.lat.active += time.Since(start)
	rec := e2.Recovery()
	rs.recoveryMs = append(rs.recoveryMs, msOf(rec.Duration))
	rs.replayed = append(rs.replayed, float64(rec.ReplayedRows))
	rs.rounds++
	return reads, e2, nil
}

// checkRound is the untimed oracle for one round: every read against the
// generated rows, then row count and checksums of the reopened engine, and
// its indexed answers against the rewrite-off plan.
func (env *ingestEnv) checkRound(e *patchindex.Engine, reads []read, out *outcome) {
	for _, r := range reads {
		if r.got != r.want {
			out.fail("%s after %d appends: got %s, want %s", r.sql, r.appended, r.got, r.want)
		}
	}
	checks := []struct {
		sql, want string
	}{
		{"SELECT COUNT(*), SUM(u), SUM(s), SUM(payload) FROM data", env.totalsWant},
		{distinctQuery, env.distinctAnswer(len(env.batches))},
	}
	for _, c := range checks {
		for _, off := range []bool{false, true} {
			res, err := e.ExecWith(c.sql, patchindex.ExecOptions{DisablePatchRewrites: off})
			out.attempted++
			if err != nil {
				out.fail("check %s: %v", c.sql, err)
			} else if got := render(res); got != c.want {
				out.fail("check %s (rewrites off=%v) after reopen: got %s, want %s", c.sql, off, got, c.want)
			}
		}
	}
}

// checkSorted compares the indexed sort with the plain one once per run:
// same rows, both ascending.
func checkSorted(e *patchindex.Engine, out *outcome) error {
	var runs [2]layerRun
	for i, off := range []bool{false, true} {
		r, err := drive(context.Background(), e.Catalog(), "SELECT s FROM data ORDER BY s", driveOpts{disableRewrites: off, parallelism: 1, check: true, ordered: true})
		if err != nil {
			return err
		}
		out.attempted++
		if r.outOfOrder > 0 {
			out.fail("check ORDER BY s (rewrites off=%v): %d rows out of order", off, r.outOfOrder)
		}
		runs[i] = r
	}
	if runs[0].rows != runs[1].rows || runs[0].sum != runs[1].sum {
		out.fail("check ORDER BY s: rewrites on gave %d rows, off gave %d rows or another checksum", runs[0].rows, runs[1].rows)
	}
	return nil
}

func runIngest(opt options, out *outcome) error {
	env := genIngest(opt)
	rep := 0
	if _, err := timedSetups(opt, out, func() (*ingestEnv, error) {
		rep++
		return env, env.writeBase(opt, rep)
	}, func(env *ingestEnv) { os.RemoveAll(env.base) }); err != nil {
		return err
	}
	// The base rows are on disk now. The appends and the answers stay live
	// to the end, so the heap above this baseline is the engine's.
	env.u, env.s, env.payload = nil, nil, nil
	heapBase := liveHeap()
	out.config["base_rows"] = env.baseRows
	out.config["partitions"] = ingestParts
	out.config["hot_partitions"] = ingestHot
	out.config["batch_rows"] = env.batchRows
	out.config["appends_per_round"] = ingestAppends
	out.config["checkpoint_after_appends"] = ingestCkptAfter
	out.config["reads_every_appends"] = ingestReadEvery
	out.config["duplicate_rate"] = ingestDupRate
	out.config["late_rate"] = ingestLateRate
	out.config["cache_bytes"] = env.cacheBytes
	out.config["wal_flush_policy"] = "engine default: fsync per logged record"
	out.config["clients"] = 1
	out.config["loop"] = "closed"
	out.config["storage"] = "durable (DataDir under .bench_build)"

	reg := obs.NewRegistry()
	rs := &roundStats{}
	if opt.trace {
		zeroLayer(out)
		rs.tot = newLayerTotals()
	}
	deadline := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	var last *patchindex.Engine
	defer func() {
		if last != nil {
			last.Close()
		}
	}()
	for rs.rounds == 0 || time.Since(start) < deadline {
		if last != nil {
			last.Close()
			last = nil
		}
		reads, e, err := env.round(opt, reg, rs, out)
		if err != nil {
			return err
		}
		last = e
		env.checkRound(e, reads, out)
		bytes, err := diskBytes(filepath.Join(opt.dir, "work"))
		if err != nil {
			return err
		}
		rs.bytesPerUser = append(rs.bytesPerUser, float64(bytes)/float64(24*(env.baseRows+ingestAppends*env.batchRows)))
		rs.heapMB = append(rs.heapMB, heapAboveMB(heapBase))
	}
	out.config["rounds"] = rs.rounds
	if err := checkSorted(last, out); err != nil {
		return err
	}
	if !opt.trace {
		rs.lat.report(out, ingestTailQ)
		out.metrics["heap_live_mb"] = median(rs.heapMB)
		return nil
	}
	for _, q := range []string{env.selectiveQuery(env.readLo[0]), distinctQuery} {
		if err := rs.tot.countAllocs(context.Background(), last.Catalog(), q, false); err != nil {
			return err
		}
	}
	rs.tot.report(out)
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["maintain_append_nanos"]; ok {
		out.metrics["maintain.append_us"] = usOf(h.Quantile(0.5))
	}
	if h, ok := snap.Histograms["wal_append_nanos"]; ok {
		out.metrics["wal.append_us"] = usOf(h.Quantile(0.5))
	}
	out.metrics["maintain.patches_added"] = float64(snap.Counters["maintain_patches_added_total"]) / float64(rs.rounds)
	out.metrics["storage.append_us"] = 1000 * median(rs.appendMs)
	if rs.hits+rs.misses > 0 {
		out.metrics["storage.cache_hit_ratio"] = float64(rs.hits) / float64(rs.hits+rs.misses)
	}
	out.metrics["storage.cache_evictions"] = float64(rs.evictions) / float64(rs.rounds)
	out.metrics["storage.checkpoint_bytes"] = median(rs.ckptBytes)
	out.metrics["compress.ratio"] = median(rs.compress)
	out.metrics["catalog.recovery_ms"] = median(rs.recoveryMs)
	out.metrics["wal.replayed_rows"] = median(rs.replayed)
	out.metrics["ingest.rows_s"] = float64(rs.appendedRows) / rs.appendTime.Seconds()
	out.metrics["ingest.checkpoint_p50_ms"] = median(rs.ckptMs)
	out.metrics["ingest.restart_ms"] = median(rs.restart)
	out.metrics["ingest.bytes_per_user_byte"] = median(rs.bytesPerUser)
	out.metrics["discovery.build_ms"] = msOf(env.buildTime)
	return nil
}
