// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VII) at testing.B scale; regenerate one with
// go test -run NONE -bench '<name>' . (EXPERIMENTS.md holds the results):
//
//	BenchmarkNSCJoin    — §VII-A1 fact⋈date join, baseline vs. PatchIndex
//	BenchmarkTable1     — Table I count-distinct on customer columns
//	BenchmarkFig4       — Figure 4 count-distinct vs. exception rate
//	BenchmarkFig5       — Figure 5 sort query vs. exception rate
//	BenchmarkFig6       — Figure 6 index creation time vs. exception rate
//	BenchmarkMemory     — §VII-B3 memory consumption (reported as MB metric)
package patchindex

import (
	"fmt"
	"testing"

	"patchindex/internal/datagen"
	"patchindex/internal/discovery"
	"patchindex/internal/patch"
)

// Benchmark scale (deliberately below the paper's 100M/12M/1.4B rows so the
// suite completes in minutes; shapes are preserved — see EXPERIMENTS.md).
const (
	benchCustomRows   = 1_000_000
	benchCustomerRows = 300_000
	benchSalesRows    = 2_000_000
	benchPartitions   = 8
)

var benchRates = []float64{0, 0.2, 0.5, 0.8}

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e, err := New(Config{DefaultPartitions: benchPartitions})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

func benchCustomEngine(b *testing.B, uniqueRate, sortedRate float64) *Engine {
	b.Helper()
	e := benchEngine(b)
	t, err := datagen.LoadCustom("data", benchCustomRows, benchPartitions, uniqueRate, sortedRate, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Catalog().AddTable(t); err != nil {
		b.Fatal(err)
	}
	return e
}

func benchIndex(b *testing.B, e *Engine, col string, c patch.Constraint, kind patch.Kind) *patch.Index {
	b.Helper()
	ix, err := e.CreatePatchIndex("data", col, c, discovery.BuildOptions{Kind: kind, Threshold: 1.0})
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

func drainQuery(b *testing.B, e *Engine, q string, baseline bool) {
	b.Helper()
	if _, err := e.DrainWith(q, ExecOptions{DisablePatchRewrites: baseline}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNSCJoin reproduces §VII-A1: catalog_sales ⋈ date_dim on the
// nearly sorted cs_sold_date_sk (paper: 1.4 s → 0.7 s, ~2x).
func BenchmarkNSCJoin(b *testing.B) {
	e := benchEngine(b)
	sales, err := datagen.GenCatalogSales(datagen.TPCDSConfig{
		SalesRows: benchSalesRows, Partitions: benchPartitions, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Catalog().AddTable(sales); err != nil {
		b.Fatal(err)
	}
	dates, err := datagen.GenDateDim()
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Catalog().AddTable(dates); err != nil {
		b.Fatal(err)
	}
	if _, err := e.CreatePatchIndex("catalog_sales", "cs_sold_date_sk", patch.NearlySorted,
		discovery.BuildOptions{Kind: patch.Auto, Threshold: 1.0}); err != nil {
		b.Fatal(err)
	}
	q := "SELECT COUNT(*) FROM date_dim JOIN catalog_sales ON d_date_sk = cs_sold_date_sk"
	b.Run("baseline-hashjoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drainQuery(b, e, q, true)
		}
	})
	b.Run("patchindex-mergejoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drainQuery(b, e, q, false)
		}
	})
}

// BenchmarkTable1 reproduces Table I: count-distinct over the nearly unique
// c_email_address (~3.6 % exceptions) and the heavily duplicated
// c_current_addr_sk (~86.5 %).
func BenchmarkTable1(b *testing.B) {
	e := benchEngine(b)
	cust, err := datagen.GenCustomer(datagen.TPCDSConfig{
		CustomerRows: benchCustomerRows, Partitions: benchPartitions, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Catalog().AddTable(cust); err != nil {
		b.Fatal(err)
	}
	for _, col := range []string{"c_email_address", "c_current_addr_sk"} {
		if _, err := e.CreatePatchIndex("customer", col, patch.NearlyUnique,
			discovery.BuildOptions{Kind: patch.Auto, Threshold: 1.0}); err != nil {
			b.Fatal(err)
		}
		q := fmt.Sprintf("SELECT COUNT(DISTINCT %s) FROM customer", col)
		b.Run(col+"/baseline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drainQuery(b, e, q, true)
			}
		})
		b.Run(col+"/patchindex", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drainQuery(b, e, q, false)
			}
		})
	}
}

// BenchmarkFig4 reproduces Figure 4: count-distinct runtime with varying
// uniqueness exception rate for no index and both representations.
func BenchmarkFig4(b *testing.B) {
	const q = "SELECT COUNT(DISTINCT u) FROM data"
	for _, rate := range benchRates {
		e := benchCustomEngine(b, rate, 0)
		b.Run(fmt.Sprintf("rate=%.0f%%/baseline", 100*rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drainQuery(b, e, q, true)
			}
		})
		for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
			benchIndex(b, e, "u", patch.NearlyUnique, kind)
			b.Run(fmt.Sprintf("rate=%.0f%%/%s", 100*rate, kind), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					drainQuery(b, e, q, false)
				}
			})
			if _, err := e.Exec("DROP PATCHINDEX ON data(u)"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5 reproduces Figure 5: sort-query runtime with varying
// sortedness exception rate.
func BenchmarkFig5(b *testing.B) {
	const q = "SELECT s FROM data ORDER BY s"
	for _, rate := range benchRates {
		e := benchCustomEngine(b, 0, rate)
		b.Run(fmt.Sprintf("rate=%.0f%%/baseline", 100*rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drainQuery(b, e, q, true)
			}
		})
		for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
			benchIndex(b, e, "s", patch.NearlySorted, kind)
			b.Run(fmt.Sprintf("rate=%.0f%%/%s", 100*rate, kind), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					drainQuery(b, e, q, false)
				}
			})
			if _, err := e.Exec("DROP PATCHINDEX ON data(s)"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig6 reproduces Figure 6: PatchIndex creation time with varying
// exception rate for NUC and NSC and both representations.
func BenchmarkFig6(b *testing.B) {
	for _, rate := range benchRates {
		e := benchCustomEngine(b, rate, rate)
		for _, c := range []patch.Constraint{patch.NearlyUnique, patch.NearlySorted} {
			col := "u"
			tag := "nuc"
			if c == patch.NearlySorted {
				col, tag = "s", "nsc"
			}
			for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
				b.Run(fmt.Sprintf("rate=%.0f%%/%s/%s", 100*rate, tag, kind), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ix, err := e.CreatePatchIndex("data", col, c,
							discovery.BuildOptions{Kind: kind, Threshold: 1.0})
						if err != nil {
							b.Fatal(err)
						}
						_ = ix
						b.StopTimer()
						if _, err := e.Exec(fmt.Sprintf("DROP PATCHINDEX ON data(%s)", col)); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
				})
			}
		}
	}
}

// BenchmarkMemory reproduces §VII-B3: it reports the memory footprint of
// both representations (MB_identifier / MB_bitmap metrics) across exception
// rates. The paper: bitmap constant 12.5 MB per 100M rows, identifier
// 7.9 MB per 1 % exceptions, crossover ≈1.6 %.
func BenchmarkMemory(b *testing.B) {
	for _, rate := range []float64{0.005, 0.01, patch.CrossoverRate, 0.02, 0.05, 0.2, 0.5} {
		b.Run(fmt.Sprintf("rate=%.2f%%", 100*rate), func(b *testing.B) {
			e := benchCustomEngine(b, rate, 0)
			var identMB, bitmapMB float64
			for i := 0; i < b.N; i++ {
				for _, kind := range []patch.Kind{patch.Identifier, patch.Bitmap} {
					ix := benchIndex(b, e, "u", patch.NearlyUnique, kind)
					mb := float64(ix.MemoryBytes()) / (1 << 20)
					if kind == patch.Identifier {
						identMB = mb
					} else {
						bitmapMB = mb
					}
					if _, err := e.Exec("DROP PATCHINDEX ON data(u)"); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(identMB, "MB_identifier")
			b.ReportMetric(bitmapMB, "MB_bitmap")
		})
	}
}
