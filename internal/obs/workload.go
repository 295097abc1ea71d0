package obs

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the workload observatory: a bounded per-fingerprint aggregate
// table fed from the engine's statement completion path, per-table/column
// access accounting mined at bind time, per-PatchIndex benefit attribution
// with decaying counters, and shadow "would-have-helped" accounting for
// scans that ran without an applicable index. Like the tracer, the disabled
// hot path is one atomic load (Begin returns nil and every collector method
// no-ops on nil), so profiling is off-by-default-cheap.

// DefaultWorkloadFingerprints bounds the aggregate table when the profiler
// is created with size <= 0.
const DefaultWorkloadFingerprints = 256

// DefaultBenefitHalfLife is the decay half-life of benefit and shadow
// counters, in engine-relative statement ticks: after this many further
// statements a counter's contribution has halved. Ticks, not wall clock,
// keep decay deterministic, testable, and restart-safe.
const DefaultBenefitHalfLife = 4096

// ewmaAlpha is the weight of the newest observation in the per-fingerprint
// latency EWMA.
const ewmaAlpha = 0.1

// AccessKind classifies how a statement touched a column.
type AccessKind uint8

// Column access kinds.
const (
	AccessPredicate AccessKind = iota // compared against a constant in WHERE
	AccessSortKey                     // ORDER BY key
	AccessGroupBy                     // GROUP BY / DISTINCT column
	AccessJoinKey                     // equi-join key
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case AccessSortKey:
		return "sort"
	case AccessGroupBy:
		return "group"
	case AccessJoinKey:
		return "join"
	default:
		return "predicate"
	}
}

// ColumnAccess is one bind-time observation of a column use.
type ColumnAccess struct {
	Table, Column string
	Kind          AccessKind
	// Lo/Hi carry the observed constant bound of a predicate access when the
	// compared literal was numeric; HasRange reports their validity.
	Lo, Hi   float64
	HasRange bool
}

// RewriteNote records one accepted PatchIndex rewrite: which index enabled
// it and the cost model's estimate before and after.
type RewriteNote struct {
	Table, Column, Constraint string
	CostBase, CostRewritten   float64
}

// ShadowNote records a rewrite shape that matched but had no applicable
// PatchIndex: the "would-have-helped" estimate of the cost the index could
// have saved.
type ShadowNote struct {
	Table, Column, Constraint, Shape string
	Savings                          float64
}

// IndexUse is the executed-plan side of benefit attribution: what one
// PatchIndex (or, with Constraint "zonemap", a table's zone maps) actually
// skipped during execution.
type IndexUse struct {
	Table, Column, Constraint string
	// RowsSkipped counts rows that bypassed the expensive operator thanks to
	// the index: exclude-branch output rows of a PatchSelect, or the rows of
	// zone-pruned partitions.
	RowsSkipped int64
	// PatchRows and Probes are the PatchSelect's hit/probe counters.
	PatchRows, Probes int64
	// CostSaved, for zone-map uses, is the scan cost of the pruned rows
	// (stamped by the planner, which owns the cost constants).
	CostSaved float64
}

// StmtObs collects one statement's workload observations while it is planned
// and executed. It is owned by the executing goroutine (like ActiveTrace) and
// handed to Profiler.Record on completion; all methods are safe on nil, so
// the disabled path needs no checks.
type StmtObs struct {
	accesses []ColumnAccess
	rewrites []RewriteNote
	shadows  []ShadowNote
	uses     []IndexUse

	rootCost      float64
	patchHits     int64
	partsPruned   int64
	kernelBatches int64
}

// AddAccess records one bind-time column access.
func (s *StmtObs) AddAccess(a ColumnAccess) {
	if s != nil {
		s.accesses = append(s.accesses, a)
	}
}

// AddRewrite records one accepted PatchIndex rewrite.
func (s *StmtObs) AddRewrite(n RewriteNote) {
	if s != nil {
		s.rewrites = append(s.rewrites, n)
	}
}

// AddShadow records one would-have-helped estimate.
func (s *StmtObs) AddShadow(n ShadowNote) {
	if s != nil {
		s.shadows = append(s.shadows, n)
	}
}

// AddIndexUse records executed-plan attribution for one index.
func (s *StmtObs) AddIndexUse(u IndexUse) {
	if s != nil {
		s.uses = append(s.uses, u)
	}
}

// AddExecTotals accumulates executed-plan counters (patch hits, zone-pruned
// partitions, kernel batches).
func (s *StmtObs) AddExecTotals(patchHits, partsPruned, kernelBatches int64) {
	if s != nil {
		s.patchHits += patchHits
		s.partsPruned += partsPruned
		s.kernelBatches += kernelBatches
	}
}

// SetRootCost stamps the executed plan's estimated total cost (the scale
// factor turning cost units saved into estimated time saved).
func (s *StmtObs) SetRootCost(c float64) {
	if s != nil && c > s.rootCost {
		s.rootCost = c
	}
}

// Rewrites returns the accepted-rewrite notes (nil-safe; EXPLAIN ANALYZE).
func (s *StmtObs) Rewrites() []RewriteNote {
	if s == nil {
		return nil
	}
	return s.rewrites
}

// Shadows returns the shadow notes (nil-safe; EXPLAIN ANALYZE).
func (s *StmtObs) Shadows() []ShadowNote {
	if s == nil {
		return nil
	}
	return s.shadows
}

// IndexUses returns the executed-plan attribution (nil-safe).
func (s *StmtObs) IndexUses() []IndexUse {
	if s == nil {
		return nil
	}
	return s.uses
}

// ShadowTotal sums the statement's would-have-helped estimates.
func (s *StmtObs) ShadowTotal() float64 {
	if s == nil {
		return 0
	}
	t := 0.0
	for _, n := range s.shadows {
		t += n.Savings
	}
	return t
}

// stmtObsKey is the context key carrying the active statement observation.
type stmtObsKey struct{}

// ContextWithStmtObs attaches a statement observation to a context so the
// planner and builder can record into it.
func ContextWithStmtObs(ctx context.Context, s *StmtObs) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, stmtObsKey{}, s)
}

// StmtObsFromContext returns the statement observation attached to ctx, or
// nil.
func StmtObsFromContext(ctx context.Context) *StmtObs {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(stmtObsKey{}).(*StmtObs)
	return s
}

// workloadShards is the shard count of the fingerprint table; updates take
// only their shard's mutex for map lookup and then mutate atomics, so
// concurrent statements rarely contend.
const workloadShards = 16

// stmtAgg is the aggregate of one statement fingerprint. Counters are
// atomics; the latency histogram is the registry's lock-free Histogram.
type stmtAgg struct {
	fp   uint64
	norm string

	count, errs   atomic.Int64
	rowsOut       atomic.Int64
	totalNanos    atomic.Int64
	patchHits     atomic.Int64
	partsPruned   atomic.Int64
	kernelBatches atomic.Int64
	maxParallel   atomic.Int64
	lastTick      atomic.Int64
	ewmaBits      atomic.Uint64 // float64 bits of the latency EWMA (ns)
	shadowBits    atomic.Uint64 // float64 bits of accumulated shadow savings
	costSavedBits atomic.Uint64 // float64 bits of accumulated rewrite savings
	lat           Histogram
}

// addFloat accumulates delta into a float64 stored as atomic bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		val := math.Float64frombits(old) + delta
		if bits.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// maxInt raises an atomic to at least v.
func maxInt(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// colAgg accumulates per-table/column access accounting.
type colAgg struct {
	mu                    sync.Mutex
	pred, sort, grp, join int64
	lo, hi                float64
	hasRange              bool
}

type colKey struct{ table, column string }

// decayCtr is a decaying accumulator: value halves every halfLife ticks.
type decayCtr struct {
	mu       sync.Mutex
	value    float64
	count    int64
	lastTick int64
}

func (d *decayCtr) add(tick int64, delta float64, halfLife float64) {
	d.mu.Lock()
	d.decayTo(tick, halfLife)
	d.value += delta
	d.count++
	d.mu.Unlock()
}

func (d *decayCtr) decayTo(tick int64, halfLife float64) {
	if tick > d.lastTick {
		d.value *= math.Exp2(-float64(tick-d.lastTick) / halfLife)
		d.lastTick = tick
	}
}

func (d *decayCtr) read(tick int64, halfLife float64) (float64, int64) {
	d.mu.Lock()
	d.decayTo(tick, halfLife)
	v, c := d.value, d.count
	d.mu.Unlock()
	return v, c
}

// Profiler is the workload observatory. Create one with NewProfiler, enable
// it with SetEnabled, call Begin at statement start (nil when disabled) and
// Record at completion. All aggregate state is bounded.
type Profiler struct {
	enabled  atomic.Bool
	max      int
	halfLife float64

	ticks   atomic.Int64
	dropped atomic.Int64 // statements whose fingerprint missed the full table
	size    atomic.Int64 // fingerprints currently tracked

	shards [workloadShards]struct {
		mu sync.Mutex
		m  map[uint64]*stmtAgg
	}

	colMu sync.Mutex
	cols  map[colKey]*colAgg

	shadowMu sync.Mutex
	shadow   map[string]*decayCtr // per table

	benefit *BenefitTracker
}

// NewProfiler creates a disabled profiler keeping at most maxFingerprints
// statement aggregates (<= 0 uses DefaultWorkloadFingerprints).
func NewProfiler(maxFingerprints int) *Profiler {
	if maxFingerprints <= 0 {
		maxFingerprints = DefaultWorkloadFingerprints
	}
	p := &Profiler{
		max:      maxFingerprints,
		halfLife: DefaultBenefitHalfLife,
		cols:     map[colKey]*colAgg{},
		shadow:   map[string]*decayCtr{},
	}
	for i := range p.shards {
		p.shards[i].m = map[uint64]*stmtAgg{}
	}
	p.benefit = &BenefitTracker{halfLife: p.halfLife, m: map[string]*benefitCtr{}}
	return p
}

// SetEnabled flips the master switch.
func (p *Profiler) SetEnabled(on bool) {
	if p != nil {
		p.enabled.Store(on)
	}
}

// Enabled reports the master switch.
func (p *Profiler) Enabled() bool { return p != nil && p.enabled.Load() }

// Tick returns the profiler's engine-relative statement tick (the decay
// clock): the number of statements recorded so far.
func (p *Profiler) Tick() int64 {
	if p == nil {
		return 0
	}
	return p.ticks.Load()
}

// Benefit returns the per-index benefit tracker (never nil on a non-nil
// profiler).
func (p *Profiler) Benefit() *BenefitTracker {
	if p == nil {
		return nil
	}
	return p.benefit
}

// Begin starts observing one statement. It returns nil — at the cost of one
// atomic load — when profiling is disabled; every StmtObs method no-ops on
// nil, so callers need no checks.
func (p *Profiler) Begin() *StmtObs {
	if p == nil || !p.enabled.Load() {
		return nil
	}
	return &StmtObs{}
}

// Record folds one completed statement into the aggregates. so may be nil
// (the statement was begun before profiling was enabled); fp/norm come from
// the fingerprinter, d/rows/err from the completion path, parallelism is the
// statement's resolved degree.
func (p *Profiler) Record(so *StmtObs, fp uint64, norm string, d time.Duration, rows int64, err error, parallelism int) {
	if p == nil || !p.enabled.Load() {
		return
	}
	tick := p.ticks.Add(1)

	agg := p.lookup(fp, norm)
	if agg != nil {
		agg.count.Add(1)
		if err != nil {
			agg.errs.Add(1)
		}
		agg.rowsOut.Add(rows)
		agg.totalNanos.Add(int64(d))
		agg.lat.Observe(d)
		maxInt(&agg.maxParallel, int64(parallelism))
		agg.lastTick.Store(tick)
		for {
			old := agg.ewmaBits.Load()
			prev := math.Float64frombits(old)
			next := float64(d)
			if prev != 0 {
				next = prev + ewmaAlpha*(float64(d)-prev)
			}
			if agg.ewmaBits.CompareAndSwap(old, math.Float64bits(next)) {
				break
			}
		}
	}
	if so == nil {
		return
	}
	if agg != nil {
		agg.patchHits.Add(so.patchHits)
		agg.partsPruned.Add(so.partsPruned)
		agg.kernelBatches.Add(so.kernelBatches)
		addFloat(&agg.shadowBits, so.ShadowTotal())
	}

	// Bind-time column access accounting.
	for _, a := range so.accesses {
		p.recordAccess(a)
	}

	// Per-table shadow accounting (decaying).
	for _, sh := range so.shadows {
		p.shadowTable(sh.Table).add(tick, sh.Savings, p.halfLife)
	}

	// Per-index benefit attribution. The time-saved estimate assumes elapsed
	// time is proportional to the executed plan's estimated cost: one cost
	// unit of the executed plan took elapsed/rootCost nanoseconds, so a
	// rewrite that saved S units saved about S * elapsed/rootCost ns.
	nsPerCost := 0.0
	if so.rootCost > 0 {
		nsPerCost = float64(d) / so.rootCost
	}
	totalCostSaved := 0.0
	for _, rw := range so.rewrites {
		saved := rw.CostBase - rw.CostRewritten
		if saved < 0 {
			saved = 0
		}
		totalCostSaved += saved
		p.benefit.addRewrite(tick, rw.Table, rw.Column, rw.Constraint, saved, saved*nsPerCost)
	}
	if agg != nil && totalCostSaved > 0 {
		addFloat(&agg.costSavedBits, totalCostSaved)
	}
	for _, u := range so.uses {
		p.benefit.addUse(tick, u, nsPerCost)
	}
}

// lookup finds or inserts the aggregate of one fingerprint. When the table
// is full, new fingerprints fold into a reserved overflow bucket so their
// counts are not lost (and the drop is counted).
func (p *Profiler) lookup(fp uint64, norm string) *stmtAgg {
	sh := &p.shards[fp%workloadShards]
	sh.mu.Lock()
	agg, ok := sh.m[fp]
	if !ok {
		if int(p.size.Load()) >= p.max {
			sh.mu.Unlock()
			p.dropped.Add(1)
			return p.overflow()
		}
		agg = &stmtAgg{fp: fp, norm: norm}
		sh.m[fp] = agg
		p.size.Add(1)
	}
	sh.mu.Unlock()
	return agg
}

// overflow returns the catch-all aggregate (fingerprint 0) for statements
// seen after the table filled up.
func (p *Profiler) overflow() *stmtAgg {
	sh := &p.shards[0]
	sh.mu.Lock()
	agg, ok := sh.m[0]
	if !ok {
		agg = &stmtAgg{fp: 0, norm: "(other)"}
		sh.m[0] = agg
	}
	sh.mu.Unlock()
	return agg
}

func (p *Profiler) recordAccess(a ColumnAccess) {
	k := colKey{a.Table, a.Column}
	p.colMu.Lock()
	c, ok := p.cols[k]
	if !ok {
		c = &colAgg{}
		p.cols[k] = c
	}
	p.colMu.Unlock()
	c.mu.Lock()
	switch a.Kind {
	case AccessSortKey:
		c.sort++
	case AccessGroupBy:
		c.grp++
	case AccessJoinKey:
		c.join++
	default:
		c.pred++
		if a.HasRange {
			if !c.hasRange {
				c.lo, c.hi, c.hasRange = a.Lo, a.Hi, true
			} else {
				if a.Lo < c.lo {
					c.lo = a.Lo
				}
				if a.Hi > c.hi {
					c.hi = a.Hi
				}
			}
		}
	}
	c.mu.Unlock()
}

func (p *Profiler) shadowTable(table string) *decayCtr {
	p.shadowMu.Lock()
	d, ok := p.shadow[table]
	if !ok {
		d = &decayCtr{}
		p.shadow[table] = d
	}
	p.shadowMu.Unlock()
	return d
}

// FingerprintStats is the snapshot of one statement fingerprint.
type FingerprintStats struct {
	Fingerprint string `json:"fingerprint"` // %016x of the id
	SQL         string `json:"sql"`         // normalized statement
	Count       int64  `json:"count"`
	Errors      int64  `json:"errors"`
	RowsOut     int64  `json:"rows_out"`
	TotalNanos  int64  `json:"total_nanos"`
	EWMANanos   int64  `json:"ewma_nanos"`
	// Latency is the per-fingerprint duration histogram.
	Latency          HistSnapshot `json:"latency"`
	PatchHits        int64        `json:"patch_hits"`
	PartitionsPruned int64        `json:"partitions_pruned"`
	KernelBatches    int64        `json:"kernel_batches"`
	MaxParallelism   int64        `json:"max_parallelism"`
	ShadowSavings    float64      `json:"shadow_savings"`
	CostSaved        float64      `json:"cost_saved"`
	LastTick         int64        `json:"last_tick"`
}

// ColumnStats is the snapshot of one column's access accounting.
type ColumnStats struct {
	Table          string  `json:"table"`
	Column         string  `json:"column"`
	PredicateCount int64   `json:"predicate_count"`
	SortKeyCount   int64   `json:"sort_key_count"`
	GroupByCount   int64   `json:"group_by_count"`
	JoinKeyCount   int64   `json:"join_key_count"`
	MinSeen        float64 `json:"min_seen,omitempty"`
	MaxSeen        float64 `json:"max_seen,omitempty"`
	HasRange       bool    `json:"has_range"`
}

// TableShadow is the decayed per-table would-have-helped accumulator.
type TableShadow struct {
	Table   string  `json:"table"`
	Savings float64 `json:"savings"` // decayed cost units
	Count   int64   `json:"count"`
}

// WorkloadSnapshot is the /workload document.
type WorkloadSnapshot struct {
	Enabled         bool               `json:"enabled"`
	Tick            int64              `json:"tick"`
	MaxFingerprints int                `json:"max_fingerprints"`
	Dropped         int64              `json:"dropped"`
	Statements      []FingerprintStats `json:"statements"`
	Columns         []ColumnStats      `json:"columns"`
	ShadowTables    []TableShadow      `json:"shadow_tables"`
}

// Snapshot copies the profiler state: statements sorted by total time
// (descending, heaviest first), columns and shadow tables sorted by name.
func (p *Profiler) Snapshot() WorkloadSnapshot {
	s := WorkloadSnapshot{}
	if p == nil {
		return s
	}
	s.Enabled = p.enabled.Load()
	s.Tick = p.ticks.Load()
	s.MaxFingerprints = p.max
	s.Dropped = p.dropped.Load()

	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		aggs := make([]*stmtAgg, 0, len(sh.m))
		for _, a := range sh.m {
			aggs = append(aggs, a)
		}
		sh.mu.Unlock()
		for _, a := range aggs {
			s.Statements = append(s.Statements, FingerprintStats{
				Fingerprint:      fmt.Sprintf("%016x", a.fp),
				SQL:              a.norm,
				Count:            a.count.Load(),
				Errors:           a.errs.Load(),
				RowsOut:          a.rowsOut.Load(),
				TotalNanos:       a.totalNanos.Load(),
				EWMANanos:        int64(math.Float64frombits(a.ewmaBits.Load())),
				Latency:          a.lat.Snapshot(),
				PatchHits:        a.patchHits.Load(),
				PartitionsPruned: a.partsPruned.Load(),
				KernelBatches:    a.kernelBatches.Load(),
				MaxParallelism:   a.maxParallel.Load(),
				ShadowSavings:    math.Float64frombits(a.shadowBits.Load()),
				CostSaved:        math.Float64frombits(a.costSavedBits.Load()),
				LastTick:         a.lastTick.Load(),
			})
		}
	}
	sort.Slice(s.Statements, func(i, j int) bool {
		if s.Statements[i].TotalNanos != s.Statements[j].TotalNanos {
			return s.Statements[i].TotalNanos > s.Statements[j].TotalNanos
		}
		return s.Statements[i].Fingerprint < s.Statements[j].Fingerprint
	})

	p.colMu.Lock()
	keys := make([]colKey, 0, len(p.cols))
	for k := range p.cols {
		keys = append(keys, k)
	}
	aggs := make([]*colAgg, len(keys))
	for i, k := range keys {
		aggs[i] = p.cols[k]
	}
	p.colMu.Unlock()
	for i, k := range keys {
		c := aggs[i]
		c.mu.Lock()
		s.Columns = append(s.Columns, ColumnStats{
			Table: k.table, Column: k.column,
			PredicateCount: c.pred, SortKeyCount: c.sort,
			GroupByCount: c.grp, JoinKeyCount: c.join,
			MinSeen: c.lo, MaxSeen: c.hi, HasRange: c.hasRange,
		})
		c.mu.Unlock()
	}
	sort.Slice(s.Columns, func(i, j int) bool {
		if s.Columns[i].Table != s.Columns[j].Table {
			return s.Columns[i].Table < s.Columns[j].Table
		}
		return s.Columns[i].Column < s.Columns[j].Column
	})

	tick := s.Tick
	p.shadowMu.Lock()
	tables := make([]string, 0, len(p.shadow))
	ctrs := make([]*decayCtr, 0, len(p.shadow))
	for t, d := range p.shadow {
		tables = append(tables, t)
		ctrs = append(ctrs, d)
	}
	p.shadowMu.Unlock()
	for i, t := range tables {
		v, c := ctrs[i].read(tick, p.halfLife)
		s.ShadowTables = append(s.ShadowTables, TableShadow{Table: t, Savings: v, Count: c})
	}
	sort.Slice(s.ShadowTables, func(i, j int) bool { return s.ShadowTables[i].Table < s.ShadowTables[j].Table })
	return s
}

// IndexBenefit is the decayed benefit snapshot of one PatchIndex (or, with
// Constraint "zonemap", of a table's zone maps).
type IndexBenefit struct {
	Table      string `json:"table"`
	Column     string `json:"column,omitempty"`
	Constraint string `json:"constraint"`
	// Rewrites counts accepted rewrites this index enabled (undecayed).
	Rewrites int64 `json:"rewrites"`
	// RowsSkipped, CostSaved and TimeSavedNanos decay with the benefit
	// half-life, so an index that stops being useful visibly fades.
	RowsSkipped    float64 `json:"rows_skipped"`
	CostSaved      float64 `json:"cost_saved"`
	TimeSavedNanos float64 `json:"time_saved_nanos"`
	// LastUsedTick is the engine-relative statement tick of the last use
	// (monotonic; 0 = never used since startup).
	LastUsedTick int64 `json:"last_used_tick"`
}

// benefitCtr accumulates one index's decaying benefit.
type benefitCtr struct {
	mu           sync.Mutex
	rewrites     int64
	rowsSkipped  float64
	costSaved    float64
	timeSavedNS  float64
	lastTick     int64 // decay anchor
	lastUsedTick int64
}

func (b *benefitCtr) decayTo(tick int64, halfLife float64) {
	if tick > b.lastTick {
		f := math.Exp2(-float64(tick-b.lastTick) / halfLife)
		b.rowsSkipped *= f
		b.costSaved *= f
		b.timeSavedNS *= f
		b.lastTick = tick
	}
}

// BenefitTracker maintains the decaying per-index benefit counters.
type BenefitTracker struct {
	mu       sync.Mutex
	halfLife float64
	m        map[string]*benefitCtr
}

func benefitKey(table, column, constraint string) string {
	return table + "." + column + "[" + constraint + "]"
}

func (bt *BenefitTracker) ctr(key string) *benefitCtr {
	bt.mu.Lock()
	b, ok := bt.m[key]
	if !ok {
		b = &benefitCtr{}
		bt.m[key] = b
	}
	bt.mu.Unlock()
	return b
}

func (bt *BenefitTracker) addRewrite(tick int64, table, column, constraint string, costSaved, timeSavedNS float64) {
	if bt == nil {
		return
	}
	b := bt.ctr(benefitKey(table, column, constraint))
	b.mu.Lock()
	b.decayTo(tick, bt.halfLife)
	b.rewrites++
	b.costSaved += costSaved
	b.timeSavedNS += timeSavedNS
	b.lastUsedTick = tick
	b.mu.Unlock()
}

func (bt *BenefitTracker) addUse(tick int64, u IndexUse, nsPerCost float64) {
	if bt == nil {
		return
	}
	b := bt.ctr(benefitKey(u.Table, u.Column, u.Constraint))
	b.mu.Lock()
	b.decayTo(tick, bt.halfLife)
	b.rowsSkipped += float64(u.RowsSkipped)
	if u.CostSaved > 0 {
		b.costSaved += u.CostSaved
		b.timeSavedNS += u.CostSaved * nsPerCost
	}
	b.lastUsedTick = tick
	b.mu.Unlock()
}

// Lookup returns the decayed benefit of one index as of tick.
func (bt *BenefitTracker) Lookup(table, column, constraint string, tick int64) (IndexBenefit, bool) {
	if bt == nil {
		return IndexBenefit{}, false
	}
	bt.mu.Lock()
	b, ok := bt.m[benefitKey(table, column, constraint)]
	bt.mu.Unlock()
	if !ok {
		return IndexBenefit{}, false
	}
	b.mu.Lock()
	b.decayTo(tick, bt.halfLife)
	out := IndexBenefit{
		Table: table, Column: column, Constraint: constraint,
		Rewrites: b.rewrites, RowsSkipped: b.rowsSkipped,
		CostSaved: b.costSaved, TimeSavedNanos: b.timeSavedNS,
		LastUsedTick: b.lastUsedTick,
	}
	b.mu.Unlock()
	return out, true
}

// Snapshot returns every tracked benefit, decayed to tick and sorted by key.
func (bt *BenefitTracker) Snapshot(tick int64) []IndexBenefit {
	if bt == nil {
		return nil
	}
	bt.mu.Lock()
	keys := make([]string, 0, len(bt.m))
	for k := range bt.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ctrs := make([]*benefitCtr, len(keys))
	for i, k := range keys {
		ctrs[i] = bt.m[k]
	}
	bt.mu.Unlock()
	out := make([]IndexBenefit, 0, len(keys))
	for i, k := range keys {
		b := ctrs[i]
		// Key is "table.column[constraint]"; split it back for the snapshot.
		table, column, constraint := splitBenefitKey(k)
		b.mu.Lock()
		b.decayTo(tick, bt.halfLife)
		out = append(out, IndexBenefit{
			Table: table, Column: column, Constraint: constraint,
			Rewrites: b.rewrites, RowsSkipped: b.rowsSkipped,
			CostSaved: b.costSaved, TimeSavedNanos: b.timeSavedNS,
			LastUsedTick: b.lastUsedTick,
		})
		b.mu.Unlock()
	}
	return out
}

// splitBenefitKey inverts benefitKey. Table names may contain dots in
// principle, so split at the first dot and the trailing bracket.
func splitBenefitKey(k string) (table, column, constraint string) {
	br := len(k)
	if br > 0 && k[br-1] == ']' {
		if open := lastIndexByte(k, '['); open >= 0 {
			constraint = k[open+1 : br-1]
			k = k[:open]
		}
	}
	for i := 0; i < len(k); i++ {
		if k[i] == '.' {
			return k[:i], k[i+1:], constraint
		}
	}
	return k, "", constraint
}

func lastIndexByte(s string, c byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == c {
			return i
		}
	}
	return -1
}
