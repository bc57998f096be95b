package plan

// Stage is a maximal set of physical operators that run over the same set
// of partitions on the same containers (Section 2.1). A stage starts at a
// partitioning operator — Extract for leaf stages, Exchange elsewhere — and
// extends upward until the next stage boundary.
type Stage struct {
	// Ops lists the stage's operators bottom-up; Ops[0] is the
	// partitioning operator that sets the stage's partition count.
	Ops []*Physical
	// Partitions is the stage-wide partition count.
	Partitions int
}

// PartitioningOp returns the operator that decides the stage's partition
// count (its first, bottom-most operator).
func (s *Stage) PartitioningOp() *Physical {
	if len(s.Ops) == 0 {
		return nil
	}
	return s.Ops[0]
}

// isStageBoundary reports whether op starts a new stage.
func isStageBoundary(op PhysicalOp) bool {
	return op == PExchange || op == PExtract
}

// Stages decomposes the plan into stages, bottom-up. Operators between two
// Exchange operators (exclusive of the upper one) share a stage with the
// lower Exchange; Extract leaves start leaf stages. Every other operator,
// binary ones (joins, unions) included, continues the stage of its first
// child, whatever that child is, so a stage is always one first-child
// chain: the partitioning operator at the bottom, each operator above it
// the parent of the one below through its first child.
func Stages(root *Physical) []*Stage {
	var stages []*Stage
	stageOf := map[*Physical]*Stage{}

	var visit func(n *Physical)
	visit = func(n *Physical) {
		for _, c := range n.Children {
			visit(c)
		}
		if isStageBoundary(n.Op) || len(n.Children) == 0 {
			st := &Stage{Ops: []*Physical{n}}
			stages = append(stages, st)
			stageOf[n] = st
			return
		}
		// Continue the stage of the first child (SCOPE pipelines an
		// operator with the input whose partitioning it consumes).
		st := stageOf[n.Children[0]]
		st.Ops = append(st.Ops, n)
		stageOf[n] = st
	}
	visit(root)

	for _, st := range stages {
		st.Partitions = st.Ops[0].Partitions
	}
	return stages
}

// TopStage returns the stage that n tops, without decomposing the rest of
// the plan: n and the operators below it along its first-child chain, down
// to and including the first stage boundary. When nothing above n
// continues its stage (n is the root, an Exchange's child or a later child
// of a binary operator), its Ops equal those of StageOf(root)[n] for any
// plan containing n; for an operator inside a stage it is the part of that
// stage from the partitioning operator up to n.
func TopStage(n *Physical) *Stage {
	depth := 1
	for c := n; !isStageBoundary(c.Op) && len(c.Children) > 0; c = c.Children[0] {
		depth++
	}
	ops := make([]*Physical, depth)
	for i, c := depth-1, n; i >= 0; i-- {
		ops[i] = c
		if i > 0 {
			c = c.Children[0]
		}
	}
	return &Stage{Ops: ops, Partitions: ops[0].Partitions}
}

// StageOf returns the stage containing each operator of the plan.
func StageOf(root *Physical) map[*Physical]*Stage {
	out := map[*Physical]*Stage{}
	for _, st := range Stages(root) {
		for _, op := range st.Ops {
			out[op] = st
		}
	}
	return out
}

// Width is the stage's effective pipeline width: its partition count
// clamped to [1, max]. The optimizer picks partition counts for
// production-scale clusters (hundreds of containers); a single-process
// executor folds them onto at most max concurrent pipeline instances.
func (s *Stage) Width(max int) int {
	return clampWidth(s.Partitions, max)
}

// PipelineWidths maps every operator of the plan to the pipeline width of
// its stage, clamped to [1, max] — the degree of parallelism the streaming
// executor instantiates for it. Operators whose stage carries no positive
// partition count (hand-built plans) map to 1.
func PipelineWidths(root *Physical, max int) map[*Physical]int {
	out := map[*Physical]int{}
	for _, st := range Stages(root) {
		w := st.Width(max)
		for _, op := range st.Ops {
			out[op] = w
		}
	}
	return out
}

// clampWidth folds a partition count into [1, max]; max <= 0 means no cap.
func clampWidth(p, max int) int {
	if p < 1 {
		p = 1
	}
	if max > 0 && p > max {
		p = max
	}
	return p
}

// SetStagePartitions assigns the partition count of every operator to its
// stage's partitioning operator's count, mirroring SCOPE's partition-count
// derivation (Section 5.2).
func SetStagePartitions(root *Physical) {
	for _, st := range Stages(root) {
		p := st.Ops[0].Partitions
		if p <= 0 {
			p = 1
			st.Ops[0].Partitions = 1
		}
		for _, op := range st.Ops[1:] {
			op.Partitions = p
		}
		st.Partitions = p
	}
}
