package plan

import (
	"fmt"
	"strings"
)

// NodeStats carries the per-operator statistics the cost models consume
// (Table 2 of the paper) plus the actuals observed after execution.
type NodeStats struct {
	// EstCard is the optimizer-estimated output cardinality.
	EstCard float64
	// ActCard is the actual output cardinality observed at runtime (0
	// before execution).
	ActCard float64
	// RowLength is the average output row length in bytes.
	RowLength float64
}

// Physical is a node of a physical plan tree produced by the optimizer.
type Physical struct {
	Op       PhysicalOp
	Children []*Physical

	// Identity carried over from the logical plan.
	Table         string
	InputTemplate string
	Pred          string
	Keys          []Column
	UDF           string
	N             int

	// Partitions is the partition count (degree of parallelism) this
	// operator runs with. Operators in one stage share a count.
	Partitions int
	// FixedPartitions marks operators whose partition count is imposed by
	// storage layout or semantics (pre-partitioned inputs, singleton
	// exchanges) and must not be changed by partition optimization.
	FixedPartitions bool

	Stats NodeStats

	// ExclusiveCostEst is the optimizer's predicted exclusive latency
	// (seconds) for this operator, filled during costing.
	ExclusiveCostEst float64
	// ExclusiveActual is the measured exclusive latency (seconds), filled
	// by the execution simulator.
	ExclusiveActual float64
}

// NewPhysical builds a node with the given operator and children.
func NewPhysical(op PhysicalOp, children ...*Physical) *Physical {
	return &Physical{Op: op, Children: children}
}

// Walk visits the subtree in post-order.
func (p *Physical) Walk(fn func(*Physical)) {
	for _, c := range p.Children {
		c.Walk(fn)
	}
	fn(p)
}

// Count returns the node count of the subtree.
func (p *Physical) Count() int {
	n := 0
	p.Walk(func(*Physical) { n++ })
	return n
}

// Depth returns the height of the subtree (a leaf has depth 1).
func (p *Physical) Depth() int {
	max := 0
	for _, c := range p.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Leaves returns the PExtract leaves in left-to-right order.
func (p *Physical) Leaves() []*Physical {
	var out []*Physical
	p.Walk(func(n *Physical) {
		if len(n.Children) == 0 {
			out = append(out, n)
		}
	})
	return out
}

// BaseCardinality returns the summed actual (or, if unset, estimated)
// cardinality of the leaf inputs — the paper's feature B. It recurses
// directly rather than materializing the leaf list: the costing hot path
// extracts this feature for every priced operator variant.
func (p *Physical) BaseCardinality() float64 {
	if len(p.Children) == 0 {
		c := p.Stats.ActCard
		if c == 0 {
			c = p.Stats.EstCard
		}
		return c
	}
	var sum float64
	for _, c := range p.Children {
		sum += c.BaseCardinality()
	}
	return sum
}

// InputCardinality returns the summed output cardinality of the children —
// the paper's feature I. Estimated when est is true, actual otherwise.
func (p *Physical) InputCardinality(est bool) float64 {
	var sum float64
	for _, c := range p.Children {
		if est {
			sum += c.Stats.EstCard
		} else {
			sum += c.Stats.ActCard
		}
	}
	return sum
}

// InputTemplates returns sorted, de-duplicated leaf input templates.
// Plans have a handful of distinct templates, so de-duplication scans the
// output slice instead of allocating a set.
func (p *Physical) InputTemplates() []string {
	var out []string
	p.collectTemplates(&out)
	sortStrings(out)
	return out
}

func (p *Physical) collectTemplates(out *[]string) {
	if len(p.Children) == 0 {
		if p.InputTemplate == "" {
			return
		}
		for _, t := range *out {
			if t == p.InputTemplate {
				return
			}
		}
		*out = append(*out, p.InputTemplate)
		return
	}
	for _, c := range p.Children {
		c.collectTemplates(out)
	}
}

// LogicalOpCounts returns the multiset of logical operator kinds in the
// subtree (including this node), as a fixed-size frequency vector. The
// approximate subgraph signature hashes this vector (Section 4.2).
func (p *Physical) LogicalOpCounts() [NumLogicalOps]int {
	var counts [NumLogicalOps]int
	p.addOpCounts(&counts)
	return counts
}

func (p *Physical) addOpCounts(counts *[NumLogicalOps]int) {
	for _, c := range p.Children {
		c.addOpCounts(counts)
	}
	if p.Op == PExchange {
		return // physical-only; excluded from logical frequency
	}
	counts[p.Op.Logical()]++
}

// TotalCostEst sums predicted exclusive costs over the subtree.
func (p *Physical) TotalCostEst() float64 {
	var sum float64
	p.Walk(func(n *Physical) { sum += n.ExclusiveCostEst })
	return sum
}

// TotalActual sums measured exclusive latencies over the subtree.
func (p *Physical) TotalActual() float64 {
	var sum float64
	p.Walk(func(n *Physical) { sum += n.ExclusiveActual })
	return sum
}

// Clone deep-copies the subtree.
func (p *Physical) Clone() *Physical {
	out := *p
	out.Keys = append([]Column(nil), p.Keys...)
	out.Children = make([]*Physical, len(p.Children))
	for i, c := range p.Children {
		out.Children[i] = c.Clone()
	}
	return &out
}

// CloneTopStage copies the part of the subtree that partition optimization
// can still change: every operator reachable from p without passing below
// an Exchange, the Exchanges themselves included. That is the top stage
// plus the stages coupled to it through co-partitioned joins. The subtrees
// under those Exchanges are finished stages; the copy shares them with p,
// and neither may write them. Key lists are shared too: no pass rewrites a
// physical operator's keys in place.
func (p *Physical) CloneTopStage() *Physical {
	out := *p
	if p.Op == PExchange {
		return &out
	}
	out.Children = make([]*Physical, len(p.Children))
	for i, c := range p.Children {
		out.Children[i] = c.CloneTopStage()
	}
	return &out
}

// String renders a compact one-line form.
func (p *Physical) String() string {
	var b strings.Builder
	p.format(&b)
	return b.String()
}

func (p *Physical) format(b *strings.Builder) {
	b.WriteString(p.Op.String())
	fmt.Fprintf(b, "{p=%d}", p.Partitions)
	if p.Table != "" {
		fmt.Fprintf(b, "(%s)", p.Table)
	}
	if len(p.Children) > 0 {
		b.WriteString("(")
		for i, c := range p.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			c.format(b)
		}
		b.WriteString(")")
	}
}

// PlanSummary describes a physical plan at a glance; used when diffing the
// default and learned optimizer outputs (Section 6.6).
type PlanSummary struct {
	Operators      map[string]int
	TotalPartition int
	NumStages      int
	NumOps         int
}

// Summarize computes a PlanSummary.
func Summarize(root *Physical) PlanSummary {
	s := PlanSummary{Operators: map[string]int{}}
	root.Walk(func(n *Physical) {
		s.Operators[n.Op.String()]++
		s.NumOps++
	})
	stages := Stages(root)
	s.NumStages = len(stages)
	for _, st := range stages {
		s.TotalPartition += st.Partitions
	}
	return s
}
