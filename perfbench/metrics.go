package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metric describes one reported number. End-to-end metrics carry the bound
// BENCHMARK.json fixes for them. A per-layer metric names the workloads that
// give its layer the work (On: comma-separated, or "all"); there it must
// read nonzero. README.md maps each per-layer metric to its module and the
// end-to-end metric it should move.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	On     string  `json:"-"`
}

// endToEnd are measured untraced (--trace 0) on every workload.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "stmt_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "stmt_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_stmt_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

const (
	onPaper = "paper-queries"
	onDash  = "dashboard"
	onIngst = "ingest-durable"
)

// opKinds are the operator kinds exec self time is summed by.
var opKinds = []string{"scan", "filter", "patchselect", "agg", "sort", "union", "join", "exchange", "other"}

// fig5Kinds are the operator kinds the Figure 5 attribution reports per
// exception rate.
var fig5Kinds = []string{"scan", "patchselect", "sort", "union"}

// perLayer are reported by the traced run (--trace 1) on every workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		{Name: "sql.parse_us", Unit: "us", Better: "lower", On: onDash},
		{Name: "sql.bind_us", Unit: "us", Better: "lower", On: onDash},
		{Name: "plan.rewrite_us", Unit: "us", Better: "lower", On: onDash},
		{Name: "plan.build_us", Unit: "us", Better: "lower", On: onDash},
		{Name: "plan.rewrites_fired", Unit: "count/stmt", Better: "higher", On: onPaper},
		{Name: "plan.rewrite_gain", Unit: "x", Better: "higher", On: onPaper},
		{Name: "plan.card_qerror", Unit: "x", Better: "lower", On: onPaper + ", " + onDash},
	}
	for _, k := range opKinds {
		on := onPaper
		if k == "filter" || k == "other" {
			on = onDash
		}
		ms = append(ms, metric{Name: "exec." + k + ".self_ms", Unit: "ms", Better: "lower", On: on})
	}
	ms = append(ms,
		metric{Name: "exec.allocs_per_stmt", Unit: "count", Better: "lower", On: onDash},
		metric{Name: "exec.alloc_bytes_per_stmt", Unit: "bytes", Better: "lower", On: onDash},
		metric{Name: "exec.rows_examined_per_row_out", Unit: "x", Better: "lower", On: onDash + ", " + onIngst},
		metric{Name: "exec.partitions_pruned", Unit: "count/stmt", Better: "higher", On: onDash + ", " + onIngst},
		metric{Name: "exec.patch_probes", Unit: "count/stmt", Better: "lower", On: onPaper},
		metric{Name: "exec.patch_hits", Unit: "count/stmt", Better: "higher", On: onPaper},
		metric{Name: "expr.kernel_batch_share", Unit: "ratio", Better: "higher", On: onDash},
		metric{Name: "discovery.build_ms", Unit: "ms", Better: "lower", On: onPaper + ", " + onIngst},
		metric{Name: "patch.index_bytes", Unit: "bytes", Better: "lower", On: onPaper},
		metric{Name: "maintain.append_us", Unit: "us", Better: "lower", On: onIngst},
		metric{Name: "maintain.patches_added", Unit: "count", Better: "lower", On: onIngst},
		metric{Name: "wal.append_us", Unit: "us", Better: "lower", On: onIngst},
		metric{Name: "storage.append_us", Unit: "us", Better: "lower", On: onIngst},
		metric{Name: "storage.cache_hit_ratio", Unit: "ratio", Better: "higher", On: onIngst},
		metric{Name: "storage.cache_evictions", Unit: "count", Better: "lower", On: onIngst},
		metric{Name: "storage.cold_decoded_rows", Unit: "count/stmt", Better: "lower", On: onIngst},
		metric{Name: "storage.checkpoint_bytes", Unit: "bytes", Better: "lower", On: onIngst},
		metric{Name: "compress.ratio", Unit: "x", Better: "higher", On: onIngst},
		metric{Name: "catalog.recovery_ms", Unit: "ms", Better: "lower", On: onIngst},
		metric{Name: "wal.replayed_rows", Unit: "count", Better: "lower", On: onIngst},
		metric{Name: "server.overhead_us", Unit: "us", Better: "lower", On: onDash},
		metric{Name: "ingest.rows_s", Unit: "rows/s", Better: "higher", On: onIngst},
		metric{Name: "ingest.checkpoint_p50_ms", Unit: "ms", Better: "lower", On: onIngst},
		metric{Name: "ingest.restart_ms", Unit: "ms", Better: "lower", On: onIngst},
		metric{Name: "ingest.bytes_per_user_byte", Unit: "ratio", Better: "lower", On: onIngst},
		metric{Name: "trace.overhead_pct", Unit: "%", Better: "lower", On: "all"},
		metric{Name: "trace.coverage", Unit: "ratio", Better: "higher", On: "all"},
	)
	for _, r := range fig5Rates {
		for _, k := range fig5Kinds {
			ms = append(ms, metric{Name: fig5Metric(r, k), Unit: "ms", Better: "lower", On: onPaper})
		}
		for _, mode := range []string{"on", "off"} {
			ms = append(ms, metric{Name: fig5Metric(r, mode), Unit: "ms", Better: "lower", On: onPaper})
		}
	}
	return ms
}

func find(ms []metric, name string) *metric {
	for i := range ms {
		if ms[i].Name == name {
			return &ms[i]
		}
	}
	return nil
}

// zeroLayer sets every per-layer metric to 0, so a workload only fills in
// the ones it gives work to. The self-test checks that each metric reads
// nonzero on the workloads its On field names.
func zeroLayer(out *outcome) {
	for _, m := range perLayer {
		out.metrics[m.Name] = 0
	}
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies collects operation latencies of the measured phase.
type latencies struct {
	ms     []float64
	active time.Duration // time the measured phase ran
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, msOf(d)) }

// tailSamples is how many samples the tail percentile must leave beyond it.
const tailSamples = 10

// report fills the statement metrics: the median, the fixed tail percentile
// and throughput. The tail percentile and the sample count go into the
// record, with a note when the sample is too small for the percentile.
func (l *latencies) report(out *outcome, tailQ float64) {
	out.metrics["stmt_p50_ms"] = median(l.ms)
	out.metrics["stmt_tail_ms"] = quantile(l.ms, tailQ)
	out.metrics["throughput_stmt_s"] = float64(len(l.ms)) / l.active.Seconds()
	out.config["stmt_tail_percentile"] = 100 * tailQ
	out.config["stmt_samples"] = len(l.ms)
	if float64(len(l.ms))*(1-tailQ) < tailSamples {
		out.config["stmt_tail_note"] = "fewer than 10 samples beyond the tail percentile"
	}
}

// setupReps is how often a --trace 0 run sets its workload up; setup_s is
// the median.
const setupReps = 3

// timedSetups runs setup reps times (once when tracing), closing every
// environment but the last, and records the median set-up time.
func timedSetups[T any](opt options, out *outcome, setup func() (T, error), closeEnv func(T)) (T, error) {
	reps := setupReps
	if opt.trace {
		reps = 1
	}
	var env T
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			closeEnv(env)
		}
		start := time.Now()
		var err error
		env, err = setup()
		if err != nil {
			return env, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	out.metrics["setup_s"] = median(times)
	out.config["setup_reps"] = reps
	return env, nil
}

// liveHeap is HeapAlloc after a full collection, in bytes.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// heapAboveMB is the live heap above base, in MiB. A workload takes base
// with its own generated data and answers live and no engine open, and keeps
// them live until the end, so the difference is what the engine holds.
func heapAboveMB(base float64) float64 { return (liveHeap() - base) / (1 << 20) }
