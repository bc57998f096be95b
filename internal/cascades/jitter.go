package cascades

import (
	"math"

	"cleo/internal/plan"
)

// JitterPlanPartitions perturbs the partition counts of a finished plan's
// stages by deterministic per-stage factors in [1/3, 3], respecting fixed
// boundaries, and re-prices affected operators with the given cost model.
//
// Telemetry collection applies this after planning: production heuristics
// vary with drifting statistics, so real training data covers a range of
// partition counts per template. Jittering after plan selection (rather
// than during costing) keeps operator choices — and hence subgraph
// signatures — stable across recurring instances.
func JitterPlanPartitions(root *plan.Physical, seed int64, maxPartitions int, cost Coster) {
	if maxPartitions <= 0 {
		maxPartitions = 3000
	}
	// Every stage draws its own factor, in plan.Stages order, from the
	// partition count it had before jittering, and applies it to itself and
	// to the stages coupled to it. A join's later input tops a stage that
	// comes after the join's own stage in that order, so it is jittered
	// again on its own and ends at its own factor: the two inputs of a
	// co-partitioned join need not agree afterwards.
	seq := 0
	for _, st := range plan.Stages(root) {
		coupled, fixed := coupledStages(st)
		seq++
		if fixed > 0 || st.Ops[0].FixedPartitions {
			continue
		}
		f := jitterFactor(seed, seq)
		p := int(float64(st.Partitions)*f + 0.5)
		if p < 1 {
			p = 1
		}
		if p > maxPartitions {
			p = maxPartitions
		}
		for _, cs := range coupled {
			if cs.Ops[0].FixedPartitions {
				continue
			}
			setStagePartitions(cs, p)
			for _, op := range cs.Ops {
				if cost != nil {
					op.ExclusiveCostEst = cost.OperatorCost(op)
				}
			}
		}
	}
}

// jitterFactor maps (seed, seq) to a deterministic factor in [1/3, 3].
func jitterFactor(seed int64, seq int) float64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(seq)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	u := float64(h%1_000_003) / 1_000_003.0
	return math.Exp2((u - 0.5) * 3.17)
}
