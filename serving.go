package patchindex

// Serving fast path: the engine side of internal/serving. The result cache
// stores materialized rows keyed on raw statement text, the session options
// and the per-table version stamp vector. It is consulted only while the
// statement's shared table latches are held (execPrepared/DrainWithContext
// latch before planning), which is what makes the validity check sound:
// appends on the referenced tables require the exclusive latch, so a
// version observed under the shared latch cannot change before the plan
// finishes executing.

import (
	"context"
	"sort"

	"patchindex/internal/obs"
	"patchindex/internal/plan"
	"patchindex/internal/serving"
	"patchindex/internal/sql"
	"patchindex/internal/vector"
)

// cachedResult is the result-cache payload. Columns and Rows are shared
// (never mutated after materialization); each hit wraps them in a fresh
// Result so per-statement fields (Duration, TraceID) stay per-execution.
type cachedResult struct {
	columns []string
	rows    [][]vector.Value
	bytes   int64
}

// resultOptsKey derives the result-cache key bits from the session
// options: parallel execution can change unordered layouts, so the degree
// is part of the key.
func (e *Engine) resultOptsKey(opts ExecOptions) serving.OptsKey {
	return serving.OptsKey{
		DisableRewrites: e.cfg.DisablePatchRewrites || opts.DisablePatchRewrites,
		DisableKernels:  e.cfg.DisableKernels || opts.DisableKernels,
		Parallelism:     e.effectiveParallelism(opts),
	}
}

// resultStamp is the validity key of one result-cache entry: the version
// stamps of every referenced table, in sorted table order. ok is false
// when the statement is not result-cacheable.
type resultStamp struct {
	ok       bool
	key      serving.OptsKey
	versions []uint64
}

// resultStamp decides cacheability and snapshots the referenced tables'
// version stamps. Only statements with deterministic output order qualify:
// sorted output or a single-row global aggregate. Anything else (bare
// scans, grouped aggregates, limits over unordered input) could legally
// return rows in a different order on re-execution, so a cached copy would
// not be byte-identical to a fresh one.
func (e *Engine) resultStamp(s *sql.SelectStmt, node plan.Node, opts ExecOptions) resultStamp {
	if !deterministicOrder(node) {
		return resultStamp{}
	}
	tables := selectTables(s, nil)
	if len(tables) == 0 {
		return resultStamp{}
	}
	sort.Strings(tables)
	versions := make([]uint64, 0, len(tables))
	prev := ""
	for _, name := range tables {
		if name == prev {
			continue
		}
		prev = name
		t, err := e.cat.Table(name)
		if err != nil {
			return resultStamp{}
		}
		versions = append(versions, t.Version())
	}
	return resultStamp{ok: true, key: e.resultOptsKey(opts), versions: versions}
}

// deterministicOrder reports whether the plan's output order is a function
// of table contents alone (no scan-order or parallelism dependence).
func deterministicOrder(node plan.Node) bool {
	switch n := node.(type) {
	case *plan.SortNode:
		return true
	case *plan.AggregateNode:
		// A global aggregate returns exactly one row; grouped output order
		// follows hash-map iteration and is not deterministic.
		return len(n.GroupCols) == 0
	case *plan.ProjectNode:
		return deterministicOrder(n.Input)
	case *plan.LimitNode:
		return deterministicOrder(n.Input)
	default:
		return false
	}
}

func (e *Engine) lookupCachedResult(ctx context.Context, query string, stamp resultStamp) (*Result, bool) {
	v, ok := e.resultCache.Get(query, stamp.key, stamp.versions)
	if !ok {
		return nil, false
	}
	cr := v.(*cachedResult)
	at := obs.TraceFromContext(ctx)
	sp := at.StartSpan("result_cache", -1)
	at.EndSpan(sp)
	return &Result{Columns: cr.columns, Rows: cr.rows}, true
}

func (e *Engine) storeCachedResult(query string, stamp resultStamp, res *Result) {
	cr := &cachedResult{columns: res.Columns, rows: res.Rows, bytes: estimateResultBytes(res)}
	e.resultCache.Put(query, stamp.key, stamp.versions, cr.bytes, cr)
}

// estimateResultBytes approximates a result's resident size for the byte
// budget: per-value struct size plus string payloads, plus slice headers.
func estimateResultBytes(res *Result) int64 {
	const valueSize = 48 // sizeof(vector.Value): Type+bool+int64+float64+string header+bool, padded
	size := int64(64)
	for _, c := range res.Columns {
		size += int64(len(c)) + 16
	}
	for _, row := range res.Rows {
		size += 24 + int64(len(row))*valueSize
		for _, v := range row {
			size += int64(len(v.Str))
		}
	}
	return size
}

// ResultCache returns the engine's serving result cache (never nil;
// disabled unless Config.ResultCache).
func (e *Engine) ResultCache() *serving.ResultCache { return e.resultCache }

// ServingStats is the /stats serving section.
type ServingStats struct {
	ResultCache serving.ResultCacheStats `json:"result_cache"`
}

// ServingStats snapshots the serving result cache.
func (e *Engine) ServingStats() ServingStats {
	return ServingStats{ResultCache: e.resultCache.Stats()}
}
