package cascades_test

import (
	"fmt"
	"testing"

	"cleo/internal/cascades"
	"cleo/internal/costmodel"
	"cleo/internal/learned"
	"cleo/internal/stats"
	"cleo/internal/workload/tpch"
)

// BenchmarkOptimizeTPCHQ8 times one template-hit optimization of TPC-H Q8
// at SF 1 with the default cost model, built as the engine builds it for a
// query without learned models: one search worker, the analytical
// partition chooser when resource-aware. Q8's eight-way join makes it the
// most expensive TPC-H query to search, so it shows the costed search's
// copying and stage bookkeeping more than any other.
func BenchmarkOptimizeTPCHQ8(b *testing.B) {
	for _, ra := range []bool{false, true} {
		b.Run(fmt.Sprintf("ra=%v", ra), func(b *testing.B) {
			cat := stats.NewCatalog(1)
			tpch.Register(cat, 1)
			o := &cascades.Optimizer{
				Catalog:       cat,
				Cost:          costmodel.Default{},
				MaxPartitions: 3000,
				ResourceAware: ra,
				JobSeed:       1,
				Parallelism:   1,
				Templates:     cascades.NewTemplateCache(4),
			}
			if ra {
				o.Chooser = &learned.AnalyticalChooser{Cost: o.Cost, Param: 1}
			}
			q := tpch.Q8()
			if _, err := o.Optimize(q); err != nil { // publishes the template
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := o.Optimize(q)
				if err != nil {
					b.Fatal(err)
				}
				if !res.TemplateHit {
					b.Fatal("template miss")
				}
			}
		})
	}
}
