package patchindex

import (
	"fmt"
	"math/rand"
	"testing"

	"patchindex/internal/vector"
)

// TestDifferentialCachedVsFresh is the serving axis of the PQS-style
// differential suite: every generated statement runs against a fresh
// engine (no cache) and twice against a cached engine (cold, then hot —
// the second execution may come from the result cache), with DDL and
// tuner-style index create/drop/append actions interleaved so the
// version-stamp invalidation path is exercised. All three
// executions must be byte-identical; any divergence is a stale cache.
func TestDifferentialCachedVsFresh(t *testing.T) {
	seeds := []int64{11, 12, 13}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			parts := 1 + rng.Intn(3)
			n := 2000 + rng.Intn(6000)
			rate := rng.Float64() * 0.2

			fresh, err := New(Config{DefaultPartitions: parts})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fresh.Close() })
			cached, err := New(Config{DefaultPartitions: parts, ResultCache: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cached.Close() })
			engines := []*Engine{fresh, cached}
			for _, e := range engines {
				loadExceptionTable(t, e, "data", n, parts, rate, seed*3)
			}

			haveU, haveS := false, false
			for round := 0; round < 8; round++ {
				// One epoch/version-bumping action per round, applied to
				// both engines identically.
				switch rng.Intn(4) {
				case 0:
					if !haveU {
						for _, e := range engines {
							mustExec(t, e, "CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 1.0 FORCE")
						}
						haveU = true
					}
				case 1:
					if !haveS {
						for _, e := range engines {
							mustExec(t, e, "CREATE PATCHINDEX ON data(s) SORTED THRESHOLD 1.0 FORCE")
						}
						haveS = true
					}
				case 2:
					// Tuner-style drop through the engine API.
					if haveU && rng.Intn(2) == 0 {
						for _, e := range engines {
							if err := e.DropPatchIndex("data", "u"); err != nil {
								t.Fatal(err)
							}
						}
						haveU = false
					} else if haveS {
						for _, e := range engines {
							if err := e.DropPatchIndex("data", "s"); err != nil {
								t.Fatal(err)
							}
						}
						haveS = false
					}
				case 3:
					// Maintained append: must invalidate cached results.
					m := 50 + rng.Intn(200)
					u := vector.New(vector.Int64, m)
					s := vector.New(vector.Int64, m)
					pay := vector.New(vector.Float64, m)
					for i := 0; i < m; i++ {
						u.AppendInt64(rng.Int63n(int64(2 * n)))
						s.AppendInt64(rng.Int63n(int64(2 * n)))
						pay.AppendFloat64(float64(rng.Intn(1000)))
					}
					part := rng.Intn(parts)
					for _, e := range engines {
						if err := e.Append("data", part, []*vector.Vector{u, s, pay}); err != nil {
							t.Fatal(err)
						}
					}
				}

				lo := rng.Int63n(int64(n))
				hi := lo + rng.Int63n(int64(n)/2)
				queries := []string{
					"SELECT COUNT(DISTINCT u) FROM data",
					"SELECT COUNT(*) FROM data",
					fmt.Sprintf("SELECT COUNT(DISTINCT u) FROM data WHERE s >= %d AND s < %d", lo, hi),
					fmt.Sprintf("SELECT MIN(s), MAX(s), COUNT(s) FROM data WHERE u > %d", lo),
					fmt.Sprintf("SELECT s FROM data WHERE s >= %d AND s < %d ORDER BY s LIMIT 100", lo, hi),
					"SELECT s FROM data ORDER BY s LIMIT 500",
					fmt.Sprintf("SELECT COUNT(*), MAX(u) FROM data WHERE s > %d.5", lo),
				}
				for _, q := range queries {
					ref, err := fresh.Exec(q)
					if err != nil {
						t.Fatalf("fresh %s: %v", q, err)
					}
					want := fmt.Sprint(ref.Rows)
					for _, pass := range []string{"cold", "hot"} {
						res, err := cached.Exec(q)
						if err != nil {
							t.Fatalf("cached(%s) %s: %v", pass, q, err)
						}
						if got := fmt.Sprint(res.Rows); got != want {
							t.Fatalf("round %d %s pass %s diverged\n  query: %s\n  want: %.200s\n  got:  %.200s",
								round, pass, q, q, want, got)
						}
					}
				}
			}
			// The hot passes must actually have been served by the cache.
			snap := cached.Metrics().Snapshot()
			if snap.Counters["serving_result_cache_hits_total"] == 0 {
				t.Fatal("differential run never hit the result cache")
			}
		})
	}
}
