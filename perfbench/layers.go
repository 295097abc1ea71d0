package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"time"

	"patchindex/internal/catalog"
	"patchindex/internal/exec"
	"patchindex/internal/obs"
	"patchindex/internal/plan"
	"patchindex/internal/sql"
	"patchindex/internal/vector"
)

// The traced run drives a SELECT through the engine's layers one public
// function at a time — sql.Parse, (*sql.Binder).BindSelect,
// (*plan.Optimizer).Optimize, plan.Build, exec.DrainContext — and times each
// call from here. The executed operator tree's Stats and ExtraStats then
// split the drain into operator self times. Nothing inside the engine is
// instrumented for this. The plan config matches the engine's default
// (scan ranges and kernels on, no spilling, no workload profiling).

// driveOpts selects how one statement is driven.
type driveOpts struct {
	disableRewrites bool
	parallelism     int
	// fired counts applied rewrites (the engine's rewrites_fired_total).
	fired *obs.Counter
	// check consumes the output batch by batch into a checksum instead of
	// calling exec.DrainContext, and checks the first column is ascending
	// when ordered is set.
	check   bool
	ordered bool
	// countAllocs reads the allocation counters around the drain.
	countAllocs bool
}

// layerRun is what one statement cost in each layer.
type layerRun struct {
	parse, bind, rewrite, build time.Duration
	// total runs from the parse to the end of the drain.
	total time.Duration
	rows  int64
	// sum is an order-insensitive checksum of the output rows (check mode).
	sum uint64
	// outOfOrder counts adjacent output rows whose first column descends.
	outOfOrder int64
	tree       treeStats
	// allocs and allocBytes are what the drain allocated (countAllocs).
	allocs, allocBytes uint64
}

// layered is the time the benchmark attributes to a layer: the four
// planning calls plus the operators' self times.
func (r *layerRun) layered() time.Duration {
	d := r.parse + r.bind + r.rewrite + r.build
	for _, s := range r.tree.self {
		d += s
	}
	return d
}

// treeStats is read off the executed operator tree.
type treeStats struct {
	self                        map[string]time.Duration // operator kind -> self time
	scanRows, rootRows          int64
	pruned                      int64
	probes, hits                int64
	kernelBatches, filterInputs int64
	coldRows                    int64
	qerrors                     []float64
}

var checksumSeed = maphash.MakeSeed()

// drive runs one SELECT through the layers.
func drive(ctx context.Context, cat *catalog.Catalog, query string, o driveOpts) (layerRun, error) {
	var r layerRun
	t0 := time.Now()
	stmt, err := sql.Parse(query)
	t1 := time.Now()
	if err != nil {
		return r, fmt.Errorf("parse %q: %w", query, err)
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return r, fmt.Errorf("%q is not a SELECT", query)
	}
	b := &sql.Binder{Cat: cat}
	node, err := b.BindSelect(sel)
	t2 := time.Now()
	if err != nil {
		return r, fmt.Errorf("bind %q: %w", query, err)
	}
	opt := &plan.Optimizer{Cat: cat, DisablePatchRewrites: o.disableRewrites, RewritesFired: o.fired}
	node, err = opt.Optimize(node)
	t3 := time.Now()
	if err != nil {
		return r, fmt.Errorf("optimize %q: %w", query, err)
	}
	op, err := plan.Build(node, plan.Config{Parallelism: o.parallelism})
	t4 := time.Now()
	if err != nil {
		return r, fmt.Errorf("build %q: %w", query, err)
	}
	var before, after runtime.MemStats
	if o.countAllocs {
		runtime.ReadMemStats(&before)
	}
	var n int
	if o.check {
		n, err = consume(ctx, op, o.ordered, &r)
	} else {
		n, err = exec.DrainContext(ctx, op)
	}
	if o.countAllocs {
		runtime.ReadMemStats(&after)
		r.allocs, r.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	t5 := time.Now()
	if err != nil {
		return r, fmt.Errorf("execute %q: %w", query, err)
	}
	r.parse, r.bind, r.rewrite, r.build = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	r.total = t5.Sub(t0)
	r.rows = int64(n)
	r.tree = readTree(op)
	return r, nil
}

// consume drains op, folding every row into r.sum and counting order
// violations of the first column.
func consume(ctx context.Context, op exec.Operator, ordered bool, r *layerRun) (int, error) {
	if err := op.Open(ctx); err != nil {
		return 0, err
	}
	defer op.Close()
	var h maphash.Hash
	h.SetSeed(checksumSeed)
	var prev vector.Value
	have := false
	n := 0
	for {
		b, err := op.Next()
		if err != nil {
			return n, err
		}
		if b == nil {
			return n, nil
		}
		rows := b.Sel
		if rows == nil {
			rows = make([]int, b.Len())
			for i := range rows {
				rows[i] = i
			}
		}
		for _, i := range rows {
			h.Reset()
			for _, v := range b.Vecs {
				hashValue(&h, v.Value(i))
			}
			r.sum += h.Sum64()
			if ordered {
				cur := b.Vecs[0].Value(i)
				if have && cur.Compare(prev) < 0 {
					r.outOfOrder++
				}
				prev, have = cur, true
			}
		}
		n += len(rows)
	}
}

func hashValue(h *maphash.Hash, v vector.Value) {
	var buf [9]byte
	buf[0] = byte(v.Typ)
	if v.Null {
		buf[0] |= 0x80
		h.Write(buf[:1])
		return
	}
	var x uint64
	switch v.Typ {
	case vector.Float64:
		x = math.Float64bits(v.F64)
	case vector.String:
		h.Write(buf[:1])
		h.WriteString(v.Str)
		return
	case vector.Bool:
		if v.B {
			x = 1
		}
	default:
		x = uint64(v.I64)
	}
	for i := 0; i < 8; i++ {
		buf[1+i] = byte(x >> (8 * i))
	}
	h.Write(buf[:])
}

// opKind classifies an operator for self-time attribution.
func opKind(op exec.Operator) string {
	switch op.(type) {
	case *exec.Scan:
		return "scan"
	case *exec.Filter:
		return "filter"
	case *exec.PatchSelect:
		return "patchselect"
	case *exec.HashAgg, *exec.ParallelAgg:
		return "agg"
	case *exec.Sort:
		return "sort"
	case *exec.Union, *exec.MergeUnion:
		return "union"
	case *exec.HashJoin, *exec.MergeJoin:
		return "join"
	case *exec.Exchange:
		return "exchange"
	default:
		return "other"
	}
}

// readTree walks the executed tree. An operator's self time is its
// inclusive time minus its children's. Some operators leave their children's
// Open untimed, so a node's inclusive time is taken as at least its
// children's sum; self times then never double count. Below a parallel
// operator (Exchange, ParallelAgg) the children ran concurrently on workers,
// so their summed time can exceed the parent's wall time; they are then
// scaled down to fit it, which attributes wall time rather than worker time.
func readTree(root exec.Operator) treeStats {
	ts := treeStats{self: map[string]time.Duration{}, rootRows: root.Stats().Rows, pruned: root.Stats().PartitionsPruned}
	type node struct {
		op        exec.Operator
		incl      float64
		self      float64
		kidsScale float64
		kids      []*node
	}
	var build func(op exec.Operator) *node
	build = func(op exec.Operator) *node {
		n := &node{op: op, kidsScale: 1}
		var sum float64
		for _, c := range op.Children() {
			k := build(c)
			n.kids = append(n.kids, k)
			sum += k.incl
		}
		own := float64(op.Stats().Nanos)
		if _, par := op.(exec.WorkerStatser); par && sum > own {
			n.kidsScale = own / sum
			sum = own
		}
		n.incl = math.Max(own, sum)
		n.self = n.incl - sum
		return n
	}
	var walk func(n *node, scale float64)
	walk = func(n *node, scale float64) {
		st := n.op.Stats()
		ts.self[opKind(n.op)] += time.Duration(n.self * scale)
		if st.EstRows > 0 {
			est, act := float64(st.EstRows), math.Max(float64(st.Rows), 1)
			ts.qerrors = append(ts.qerrors, math.Max(est/act, act/est))
		}
		switch n.op.(type) {
		case *exec.Scan:
			ts.scanRows += st.Rows
		case *exec.Filter:
			ts.kernelBatches += st.KernelBatches
			for _, c := range n.op.Children() {
				ts.filterInputs += c.Stats().Batches
			}
		}
		if xs, ok := n.op.(exec.ExtraStatser); ok {
			for _, kv := range xs.ExtraStats() {
				switch kv.Key {
				case "patch_probes":
					ts.probes += kv.Value
				case "patch_hits":
					ts.hits += kv.Value
				case "cold_decoded_rows":
					ts.coldRows += kv.Value
				}
			}
		}
		for _, k := range n.kids {
			walk(k, scale*n.kidsScale)
		}
	}
	walk(build(root), 1)
	return ts
}

// countAllocs runs the statement once single-threaded and adds what its
// exec.DrainContext call allocated.
func (t *layerTotals) countAllocs(ctx context.Context, cat *catalog.Catalog, query string, disable bool) error {
	r, err := drive(ctx, cat, query, driveOpts{disableRewrites: disable, parallelism: 1, countAllocs: true})
	if err != nil {
		return err
	}
	t.allocs += r.allocs
	t.allocBytes += r.allocBytes
	t.allocStmts++
	return nil
}

// layerTotals accumulates traced statements into the per-layer metrics.
type layerTotals struct {
	stmts                          int
	parse, bind, rewrite, build    []float64 // microseconds per statement
	self                           map[string]time.Duration
	traced, layered                time.Duration
	scanRows, rootRows             int64
	pruned, probes, hits, coldRows int64
	kernelBatches, filterInputs    int64
	qerrors                        []float64
	allocs, allocBytes, allocStmts uint64
	// untraced times the traced statements run through the engine's API
	// instead; against traced it gives the tracing overhead.
	untraced time.Duration
}

func newLayerTotals() *layerTotals { return &layerTotals{self: map[string]time.Duration{}} }

func (t *layerTotals) add(r layerRun) {
	t.stmts++
	t.parse = append(t.parse, usOf(r.parse))
	t.bind = append(t.bind, usOf(r.bind))
	t.rewrite = append(t.rewrite, usOf(r.rewrite))
	t.build = append(t.build, usOf(r.build))
	for k, d := range r.tree.self {
		t.self[k] += d
	}
	t.traced += r.total
	t.layered += r.layered()
	t.scanRows += r.tree.scanRows
	t.rootRows += r.tree.rootRows
	t.pruned += r.tree.pruned
	t.probes += r.tree.probes
	t.hits += r.tree.hits
	t.coldRows += r.tree.coldRows
	t.kernelBatches += r.tree.kernelBatches
	t.filterInputs += r.tree.filterInputs
	t.qerrors = append(t.qerrors, r.tree.qerrors...)
}

// report writes the statement-level per-layer metrics.
func (t *layerTotals) report(out *outcome) {
	if t.stmts == 0 {
		return
	}
	n := float64(t.stmts)
	out.metrics["sql.parse_us"] = median(t.parse)
	out.metrics["sql.bind_us"] = median(t.bind)
	out.metrics["plan.rewrite_us"] = median(t.rewrite)
	out.metrics["plan.build_us"] = median(t.build)
	out.metrics["plan.card_qerror"] = median(t.qerrors)
	for _, k := range opKinds {
		out.metrics["exec."+k+".self_ms"] = msOf(t.self[k]) / n
	}
	if t.rootRows > 0 {
		out.metrics["exec.rows_examined_per_row_out"] = float64(t.scanRows) / float64(t.rootRows)
	}
	out.metrics["exec.partitions_pruned"] = float64(t.pruned) / n
	out.metrics["exec.patch_probes"] = float64(t.probes) / n
	out.metrics["exec.patch_hits"] = float64(t.hits) / n
	out.metrics["storage.cold_decoded_rows"] = float64(t.coldRows) / n
	if t.filterInputs > 0 {
		out.metrics["expr.kernel_batch_share"] = float64(t.kernelBatches) / float64(t.filterInputs)
	}
	if t.allocStmts > 0 {
		out.metrics["exec.allocs_per_stmt"] = float64(t.allocs) / float64(t.allocStmts)
		out.metrics["exec.alloc_bytes_per_stmt"] = float64(t.allocBytes) / float64(t.allocStmts)
	}
	if t.traced > 0 {
		out.metrics["trace.coverage"] = float64(t.layered) / float64(t.traced)
	}
	if t.untraced > 0 {
		out.metrics["trace.overhead_pct"] = 100 * (float64(t.traced) - float64(t.untraced)) / float64(t.untraced)
	}
	out.config["traced_statements"] = t.stmts
}
