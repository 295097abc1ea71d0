// Package serving implements the multi-tenant serving fast path: a
// versioned byte-budget result cache and per-tenant QoS (in-flight caps).
//
// The result cache is deliberately value-agnostic: it stores `any`
// payloads so the package depends only on internal/obs. The engine owns
// the concrete cached result type and all validity reasoning (per-table
// version stamps); this package owns bounding, eviction, and metric
// accounting. The cache sits on the per-statement hot path, so its
// disabled path is a single atomic load with no locking or hashing.
package serving

import "hash/fnv"

// hashText is the bucket hash for cache keys: FNV-1a over the raw
// statement text. Raw text (not the literal-stripped fingerprint) is
// required because sql.Fingerprint collapses literals to '?', and two
// statements differing only in literals must never share a result.
func hashText(text string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(text))
	return h.Sum64()
}

// OptsKey packs the session-relevant execution options that change what a
// cached result means: rewrite toggles select different plans, and
// parallelism and kernel toggles can change unordered result layouts.
type OptsKey struct {
	DisableRewrites bool
	DisableKernels  bool
	Parallelism     int
}
