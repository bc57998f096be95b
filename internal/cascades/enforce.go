package cascades

import (
	"slices"
	"time"

	"cleo/internal/costmodel"
	"cleo/internal/plan"
)

// enforce wraps the candidate with enforcer operators (Exchange for
// partitioning, Sort for ordering) until the required properties are met,
// and returns the final root and its delivered properties. It mutates only
// the candidate's top stage and the stages coupled to it, down to the
// Exchanges at their bottom: the candidate's own copy (see searchResult).
// The finished stages below those Exchanges, shared with other candidates,
// are only read, so independent candidates enforce concurrently.
func (s *search) enforce(root *plan.Physical, delivered, req Props) (*plan.Physical, Props, error) {
	var err error
	if !delivered.Part.Satisfies(req.Part) {
		root, err = s.addExchange(root, req.Part)
		if err != nil {
			return nil, Props{}, err
		}
		delivered.Part = req.Part
		delivered.Order = nil // hash shuffles destroy ordering
	}
	if !delivered.Order.Satisfies(req.Order) {
		var t0 time.Time
		if fine := s.obs.fine(); fine {
			t0 = time.Now()
		}
		sort := plan.NewPhysical(plan.PSort, root)
		sort.Keys = append([]plan.Column(nil), req.Order...)
		sort.Partitions = root.Partitions
		if err := s.catalog.AnnotateOne(sort, s.jobSeed); err != nil {
			return nil, Props{}, err
		}
		s.recost(sort)
		if !t0.IsZero() {
			s.obs.add(phaseEnforce, time.Since(t0))
		}
		root = sort
		delivered.Order = req.Order
	}
	return root, delivered, nil
}

// addExchange inserts a shuffle above child delivering the required
// partitioning. The exchange's partition count comes from the local
// heuristic (stock SCOPE); in resource-aware mode, the now-completed stage
// below the exchange is partition-optimized first (step 9 in Figure 8a).
func (s *search) addExchange(child *plan.Physical, part Partitioning) (*plan.Physical, error) {
	if s.resourceAware {
		s.optimizeTopStage(child)
	}
	// Exchange construction below (annotate, derive, recost) is the
	// enforcement phase proper; the arbitration above times itself, so the
	// two stay disjoint on traces.
	var t0 time.Time
	if fine := s.obs.fine(); fine {
		t0 = time.Now()
	}
	x := plan.NewPhysical(plan.PExchange, child)
	if part.Kind == HashPartition {
		x.Keys = append([]plan.Column(nil), part.Keys...)
	}
	if err := s.catalog.AnnotateOne(x, s.jobSeed); err != nil {
		return nil, err
	}
	if part.Kind == SinglePartition {
		x.Partitions = 1
		x.FixedPartitions = true
	} else {
		x.Partitions = costmodel.DerivePartitions(x, s.maxPartitions)
	}
	s.recost(x)
	if !t0.IsZero() {
		s.obs.add(phaseEnforce, time.Since(t0))
	}
	return x, nil
}

// optimizeTopStage runs partition optimization on the stage containing
// root (the top stage of the subtree). Co-partitioned joins inside the
// stage couple it to their other side's stage: those stages are optimized
// jointly, and if any coupled partitioning operator is fixed by storage
// layout, the fixed count is adopted as a required property without
// exploration (step 2 in Figure 8a).
func (s *search) optimizeTopStage(root *plan.Physical) {
	if !s.resourceAware {
		return
	}
	if so := s.obs; so != nil {
		// Arbitration is coarse enough (a handful of calls per search, each
		// spanning chooser exploration and batched re-costing) that the
		// always-on tier can afford to time it.
		t0 := time.Now()
		s.arbitrateStage(root)
		so.add(phaseArbitrate, time.Since(t0))
		return
	}
	s.arbitrateStage(root)
}

// arbitrateStage is optimizeTopStage's body: the paper's partition
// optimization plus the anchored final arbitration.
func (s *search) arbitrateStage(root *plan.Physical) {
	stages, fixed := coupledStages(plan.TopStage(root))
	if fixed > 0 {
		// A coupled stage is pinned: adopt its count as required.
		for _, st := range stages {
			if !st.Ops[0].FixedPartitions {
				setStagePartitions(st, fixed)
				s.recostAll(st.Ops)
			}
		}
		return
	}
	var ops []*plan.Physical
	for _, st := range stages {
		ops = append(ops, st.Ops...)
	}
	// Guard rail (Section 6.7): learned models extrapolate poorly far
	// outside the partition counts seen in training, so exploration is
	// bounded to a window around the heuristic-derived count. The anchor
	// is recomputed from statistics (not the current count) so repeated
	// optimization cannot ratchet the window, and it takes the maximum
	// over all coupled stages — a co-partitioned join of a tiny and a
	// huge input must size for the huge one.
	cur := 1
	for _, st := range stages {
		if h := costmodel.DerivePartitions(st.Ops[0], s.maxPartitions); h > cur {
			cur = h
		}
	}
	// The window is asymmetric: heuristics over-partition (Section 6.7:
	// "SCOPE jobs tend to over-partition ... and leverage the massive
	// scale-out"), so the payoff is below the anchor; going far above it
	// only adds scheduling overhead risk.
	explMax := cur * 2
	if explMax < 16 {
		explMax = 16
	}
	if explMax > s.maxPartitions {
		explMax = s.maxPartitions
	}
	p, lookups := s.chooser.ChooseStagePartitions(ops, explMax)
	s.lookups.Add(int64(lookups))
	if p < cur/4 {
		p = cur / 4
	}
	if p < 1 {
		p = 1
	}
	if p > explMax {
		p = explMax
	}
	// Final arbitration: accept the explored count only if the cost model
	// prices the stage cheaper there than at the anchor. Both counts are
	// priced in one batched call.
	if p != cur && cur <= explMax {
		s.lookups.Add(int64(2 * len(ops)))
		counts := [2]int{p, cur}
		var totals [2]float64
		stageCostsInto(s.cost, ops, counts[:], totals[:])
		if totals[0] > totals[1] {
			p = cur
		}
	}
	for _, st := range stages {
		setStagePartitions(st, p)
	}
	s.recostAll(ops)
}

// coupledStages returns the transitive set of stages that must share a
// partition count with st (via co-partitioned joins), breadth-first from
// st, plus the fixed count imposed by any pinned member (0 if none). A
// join's first child lies in the join's own stage; each later child tops
// its own, which plan.TopStage finds. Stages are told apart by their
// partitioning operator, so none is listed twice.
func coupledStages(st *plan.Stage) ([]*plan.Stage, int) {
	out := []*plan.Stage{st}
	fixed := 0
	for i := 0; i < len(out); i++ {
		cur := out[i]
		if cur.Ops[0].FixedPartitions && cur.Ops[0].Partitions > fixed {
			fixed = cur.Ops[0].Partitions
		}
		for _, op := range cur.Ops {
			if op.Op != plan.PHashJoin && op.Op != plan.PMergeJoin {
				continue
			}
			for _, ch := range op.Children[1:] {
				cs := plan.TopStage(ch)
				if !slices.ContainsFunc(out, func(st *plan.Stage) bool { return st.Ops[0] == cs.Ops[0] }) {
					out = append(out, cs)
				}
			}
		}
	}
	return out, fixed
}

func setStagePartitions(stage *plan.Stage, p int) {
	stage.Partitions = p
	for _, op := range stage.Ops {
		op.Partitions = p
	}
}

// alignPartitions makes both join inputs agree on a partition count, since
// a co-partitioned join requires its children's partitions to line up.
//
// Stock SCOPE derives a count from local statistics and repartitions both
// sides to it (the paper's Q8 observation). In resource-aware mode the
// optimizer compares concrete alternatives — adopt the left count, adopt
// the right count — and keeps the cheaper, which lets a pre-partitioned
// input's layout win and drop a shuffle (the paper's Q8/Q9 improvement).
func (s *search) alignPartitions(e *Expr, lp, rp **plan.Physical) error {
	l, r := *lp, *rp
	if l.Partitions == r.Partitions {
		return nil
	}
	part := Partitioning{Kind: HashPartition, Keys: e.Keys}

	if !s.resourceAware {
		// Derive the count from the bigger input's statistics, like the
		// stage-local heuristic would, and force both sides to it.
		big := l
		if r.Stats.EstCard*r.Stats.RowLength > l.Stats.EstCard*l.Stats.RowLength {
			big = r
		}
		probe := plan.NewPhysical(plan.PExchange, big)
		probe.Stats = big.Stats
		target := costmodel.DerivePartitions(probe, s.maxPartitions)
		var err error
		*lp, err = s.retarget(l, part, target)
		if err != nil {
			return err
		}
		*rp, err = s.retarget(r, part, target)
		return err
	}

	// Resource-aware: compare concrete alternatives — adopt the left
	// count, the right count, or the statistics-derived heuristic — and
	// keep the cheapest. A floor derived from the inputs' sizes keeps
	// alignment from funnelling a large shuffle into a handful of
	// partitions on a model misprediction (Section 6.7 guard rails).
	heuristic := func(side *plan.Physical) int {
		probe := plan.NewPhysical(plan.PExchange, side)
		probe.Stats = side.Stats
		return costmodel.DerivePartitions(probe, s.maxPartitions)
	}
	hL, hR := heuristic(l), heuristic(r)
	hMax := hL
	if hR > hMax {
		hMax = hR
	}
	floor := hMax / 10
	if floor < 1 {
		floor = 1
	}
	seen := map[int]bool{}
	var candidates []int
	for _, c := range []int{l.Partitions, r.Partitions, hMax} {
		if c < floor {
			c = floor
		}
		if c > s.maxPartitions {
			c = s.maxPartitions
		}
		if !seen[c] {
			seen[c] = true
			candidates = append(candidates, c)
		}
	}

	bestCost := 0.0
	var bestL, bestR *plan.Physical
	for _, target := range candidates {
		cl, err := s.retarget(l.CloneTopStage(), part, target)
		if err != nil {
			return err
		}
		cr, err := s.retarget(r.CloneTopStage(), part, target)
		if err != nil {
			return err
		}
		cost := cl.TotalCostEst() + cr.TotalCostEst()
		if bestL == nil || cost < bestCost {
			bestCost = cost
			bestL, bestR = cl, cr
		}
	}
	*lp, *rp = bestL, bestR
	return nil
}

// retarget makes the subtree deliver `target` partitions at its top:
// adjustable tops (non-fixed Exchanges) are re-pointed; otherwise a fresh
// Exchange is inserted.
func (s *search) retarget(root *plan.Physical, part Partitioning, target int) (*plan.Physical, error) {
	if root.Partitions == target {
		return root, nil
	}
	if root.Op != plan.PExchange || root.FixedPartitions {
		var err error
		if root, err = s.addExchange(root, part); err != nil {
			return nil, err
		}
	}
	// An Exchange tops a stage of one operator: nothing in the subtree
	// continues its stage.
	stage := plan.TopStage(root)
	setStagePartitions(stage, target)
	s.recostAll(stage.Ops)
	return root, nil
}
