// Benchmarks for morsel-driven intra-query parallelism. Run with varying
// core counts to measure scaling:
//
//	go test -bench 'BenchmarkParallel' -cpu 1,4,8 .
//
// Each benchmark fixes the requested degree at the partition count; the
// exchange bounds its actual worker pool at GOMAXPROCS, so the -cpu sweep is
// what varies the real parallelism. The serial sub-benchmarks pin
// Parallelism=1 as the baseline the speedup is computed against (see
// EXPERIMENTS.md).
package patchindex

import (
	"fmt"
	"testing"

	"patchindex/internal/datagen"
	"patchindex/internal/discovery"
	"patchindex/internal/patch"
)

func benchParallelEngine(b *testing.B) *Engine {
	b.Helper()
	e := benchEngine(b)
	t, err := datagen.LoadCustom("data", benchCustomRows, benchPartitions, 0.05, 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Catalog().AddTable(t); err != nil {
		b.Fatal(err)
	}
	return e
}

func drainWith(b *testing.B, e *Engine, q string, parallelism int) {
	b.Helper()
	if _, err := e.DrainWith(q, ExecOptions{Parallelism: parallelism}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParallelScan drains a filtered projection over all partitions.
func BenchmarkParallelScan(b *testing.B) {
	e := benchParallelEngine(b)
	q := fmt.Sprintf("SELECT u FROM data WHERE u > %d", benchCustomRows/2)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drainWith(b, e, q, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drainWith(b, e, q, benchPartitions)
		}
	})
}

// BenchmarkParallelAgg runs partial aggregation with a merge: the grouping
// shape of the paper's discovery queries.
func BenchmarkParallelAgg(b *testing.B) {
	e := benchParallelEngine(b)
	for _, q := range []struct{ name, sql string }{
		{"count-distinct", "SELECT COUNT(DISTINCT u) FROM data"},
		{"group-by", "SELECT payload, COUNT(*), SUM(u) FROM data GROUP BY payload"},
	} {
		b.Run(q.name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drainWith(b, e, q.sql, 1)
			}
		})
		b.Run(q.name+"/parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drainWith(b, e, q.sql, benchPartitions)
			}
		})
	}
}

// BenchmarkParallelDiscovery measures CREATE PATCHINDEX end to end: per-
// partition discovery plus patch-set construction, serial vs. worker pool.
func BenchmarkParallelDiscovery(b *testing.B) {
	e := benchParallelEngine(b)
	tab, err := e.Catalog().Table("data")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		constraint patch.Constraint
		column     string
	}{
		{"nuc", patch.NearlyUnique, "u"},
		{"nsc", patch.NearlySorted, "s"},
	} {
		for _, par := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", benchPartitions}} {
			b.Run(c.name+"/"+par.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := discovery.BuildIndex(tab, c.column, c.constraint, discovery.BuildOptions{
						Kind: patch.Auto, Threshold: 1.0, Parallelism: par.workers,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
