package plan_test

import (
	"fmt"
	"slices"
	"testing"

	"cleo/internal/cascades"
	"cleo/internal/costmodel"
	"cleo/internal/plan"
	"cleo/internal/stats"
	"cleo/internal/workload/tpch"
)

// TestTopStageMatchesStageOfTPCH checks TopStage against the whole-plan
// decomposition on the optimizer's final TPC-H Q1–22 plans: for every
// operator that tops its stage, both find the same operators.
func TestTopStageMatchesStageOfTPCH(t *testing.T) {
	cat := stats.NewCatalog(3)
	tpch.Register(cat, 1)
	for q := 1; q <= 22; q++ {
		for _, ra := range []bool{false, true} {
			t.Run(fmt.Sprintf("Q%d/ra=%v", q, ra), func(t *testing.T) {
				o := &cascades.Optimizer{Catalog: cat, Cost: costmodel.Default{}, ResourceAware: ra, JobSeed: 1, Parallelism: 1}
				if ra {
					o.Chooser = &cascades.SamplingChooser{Cost: o.Cost, Strategy: cascades.Geometric, SkipCoefficient: 2}
				}
				res, err := o.Optimize(tpch.Queries()[q]())
				if err != nil {
					t.Fatal(err)
				}
				stageOf := plan.StageOf(res.Plan)
				tops := 0
				res.Plan.Walk(func(n *plan.Physical) {
					st := stageOf[n]
					if st.Ops[len(st.Ops)-1] != n {
						return
					}
					tops++
					if got := plan.TopStage(n); !slices.Equal(got.Ops, st.Ops) {
						t.Fatalf("TopStage(%v) = %d ops, StageOf %d ops in %s", n.Op, len(got.Ops), len(st.Ops), res.Plan)
					}
				})
				if want := len(plan.Stages(res.Plan)); tops != want {
					t.Fatalf("%d stage-topping operators, %d stages", tops, want)
				}
			})
		}
	}
}
