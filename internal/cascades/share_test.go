package cascades

import (
	"fmt"
	"testing"

	"cleo/internal/stats"
	"cleo/internal/workload/tpch"
)

// TestMemoizedResultsStayUnmutated pins the sharing rule: consumers of a
// memoized search result copy only its top stage and share the finished
// stages below its Exchanges, so nothing may write a result once it is
// published. Any later write to a shared operator's partition count is
// followed by a re-pricing, which would make the stored cost disagree
// with the root's summed costs.
func TestMemoizedResultsStayUnmutated(t *testing.T) {
	cat := stats.NewCatalog(3)
	tpch.Register(cat, 1)
	for q := 1; q <= 22; q++ {
		for _, ra := range []bool{false, true} {
			for _, width := range []int{1, 4} {
				t.Run(fmt.Sprintf("Q%d/ra=%v/w=%d", q, ra, width), func(t *testing.T) {
					o := defaultOptimizer(cat)
					if ra {
						o = resourceAwareOptimizer(cat)
					}
					o.Parallelism = width
					s := o.newSearch(o.newSem())
					res, err := s.run(tpch.Queries()[q]())
					if err != nil {
						t.Fatal(err)
					}
					if len(s.table) == 0 {
						t.Fatal("no memoized results")
					}
					for key, f := range s.table {
						if f.err != nil {
							t.Fatalf("group %d %q: %v", key.group, key.props, f.err)
						}
						if got := f.res.root.TotalCostEst(); got != f.res.cost {
							t.Fatalf("group %d %q: stored cost %v, root now sums to %v", key.group, key.props, f.res.cost, got)
						}
					}
					if got := res.Plan.TotalCostEst(); got != res.Cost {
						t.Fatalf("result cost %v, plan sums to %v", res.Cost, got)
					}
				})
			}
		}
	}
}
