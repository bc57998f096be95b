package stats

import (
	"math"
	"testing"

	"cleo/internal/plan"
)

func testCatalog() *Catalog {
	c := NewCatalog(7)
	c.PutTable("clicks_2026_06_11", TableStats{Rows: 1e7, RowLength: 120})
	c.PutTable("users_2026_06_11", TableStats{Rows: 1e5, RowLength: 60})
	return c
}

func TestSelectivityDeterminism(t *testing.T) {
	c := testCatalog()
	if c.TrueFilterSelectivity("p1") != c.TrueFilterSelectivity("p1") {
		t.Fatal("true selectivity not deterministic")
	}
	if c.TrueFilterSelectivity("p1") == c.TrueFilterSelectivity("p2") {
		t.Fatal("different predicates should differ")
	}
	s := c.TrueFilterSelectivity("p1")
	if s < 0.02 || s > 0.9 {
		t.Fatalf("selectivity %v out of range", s)
	}
}

func TestSeedChangesDistributions(t *testing.T) {
	a := NewCatalog(1)
	b := NewCatalog(2)
	if a.TrueFilterSelectivity("p") == b.TrueFilterSelectivity("p") {
		t.Fatal("catalog seed should change selectivities")
	}
}

func TestEstimateBiased(t *testing.T) {
	c := testCatalog()
	diff := false
	for _, p := range []string{"a", "b", "c", "d", "e"} {
		if math.Abs(c.EstFilterSelectivity(p)-c.TrueFilterSelectivity(p)) > 1e-12 {
			diff = true
		}
	}
	if !diff {
		t.Fatal("estimates should be biased away from truth")
	}
}

func TestDriftSmallAndDeterministic(t *testing.T) {
	c := testCatalog()
	d1 := c.Drift("p1", 42)
	d2 := c.Drift("p1", 42)
	if d1 != d2 {
		t.Fatal("drift not deterministic")
	}
	if d1 < 0.5 || d1 > 2.0 {
		t.Fatalf("drift %v implausibly large", d1)
	}
	if c.Drift("p1", 1) == c.Drift("p1", 2) {
		t.Fatal("different instances should drift differently")
	}
}

// buildJoinPlan: Output(HashAgg(Exchange(HashJoin(Filter(Extract), Extract)))).
func buildJoinPlan() *plan.Physical {
	l := plan.NewPhysical(plan.PExtract)
	l.Table = "clicks_2026_06_11"
	l.InputTemplate = "clicks_"
	l.Partitions = 8
	f := plan.NewPhysical(plan.PFilter, l)
	f.Pred = "market=us"
	f.Partitions = 8
	r := plan.NewPhysical(plan.PExtract)
	r.Table = "users_2026_06_11"
	r.InputTemplate = "users_"
	r.Partitions = 2
	j := plan.NewPhysical(plan.PHashJoin, f, r)
	j.Pred = "clicks.user=users.id"
	j.Keys = []plan.Column{"user"}
	j.Partitions = 8
	x := plan.NewPhysical(plan.PExchange, j)
	x.Keys = []plan.Column{"region"}
	x.Partitions = 16
	a := plan.NewPhysical(plan.PHashAggregate, x)
	a.Keys = []plan.Column{"region"}
	a.Partitions = 16
	o := plan.NewPhysical(plan.POutput, a)
	o.Partitions = 16
	return o
}

func TestAnnotateFillsStats(t *testing.T) {
	c := testCatalog()
	root := buildJoinPlan()
	if err := c.Annotate(root, 1, Estimated); err != nil {
		t.Fatal(err)
	}
	root.Walk(func(n *plan.Physical) {
		if n.Stats.ActCard <= 0 {
			t.Errorf("%v actual card = %v", n.Op, n.Stats.ActCard)
		}
		if n.Stats.EstCard <= 0 {
			t.Errorf("%v est card = %v", n.Op, n.Stats.EstCard)
		}
		if n.Stats.RowLength <= 0 {
			t.Errorf("%v row length = %v", n.Op, n.Stats.RowLength)
		}
	})
	// Filter must reduce cardinality.
	filter := root.Children[0].Children[0].Children[0].Children[0]
	if filter.Op != plan.PFilter {
		t.Fatalf("expected filter, got %v", filter.Op)
	}
	if filter.Stats.ActCard >= 1e7 {
		t.Fatalf("filter did not reduce: %v", filter.Stats.ActCard)
	}
}

func TestAnnotatePerfectMode(t *testing.T) {
	c := testCatalog()
	root := buildJoinPlan()
	if err := c.Annotate(root, 1, Perfect); err != nil {
		t.Fatal(err)
	}
	root.Walk(func(n *plan.Physical) {
		if n.Stats.EstCard != n.Stats.ActCard {
			t.Errorf("%v: perfect mode est %v != act %v", n.Op, n.Stats.EstCard, n.Stats.ActCard)
		}
	})
}

func TestAnnotateUnknownTable(t *testing.T) {
	c := NewCatalog(1)
	leaf := plan.NewPhysical(plan.PExtract)
	leaf.Table = "missing"
	if err := c.Annotate(leaf, 1, Estimated); err == nil {
		t.Fatal("expected error for unknown table")
	}
}

func TestEstimationErrorCompounds(t *testing.T) {
	// Deep chains of filters should (typically) accumulate more relative
	// error than a single filter. Check on a chain of 6.
	c := testCatalog()
	leaf := plan.NewPhysical(plan.PExtract)
	leaf.Table = "clicks_2026_06_11"
	leaf.InputTemplate = "clicks_"
	leaf.Partitions = 4
	cur := leaf
	var first *plan.Physical
	for i := 0; i < 6; i++ {
		f := plan.NewPhysical(plan.PFilter, cur)
		f.Pred = "pred" + string(rune('a'+i))
		f.Partitions = 4
		if first == nil {
			first = f
		}
		cur = f
	}
	if err := c.Annotate(cur, 1, Estimated); err != nil {
		t.Fatal(err)
	}
	errAt := func(n *plan.Physical) float64 {
		return math.Abs(math.Log(n.Stats.EstCard / n.Stats.ActCard))
	}
	if errAt(cur) <= errAt(first) {
		t.Logf("note: error did not compound on this seed (top %v, first %v)", errAt(cur), errAt(first))
	}
	if errAt(cur) == 0 {
		t.Fatal("expected some estimation error at the top of a deep chain")
	}
}

func TestCardLearnerCorrects(t *testing.T) {
	cl := NewCardLearner(5)
	// Template where actual is consistently 10x the estimate.
	sig := plan.Signature(123)
	var samples []CardSample
	for i := 0; i < 40; i++ {
		est := 1000.0 + float64(i)*50
		samples = append(samples, CardSample{
			Signature: sig, EstCard: est, BaseCard: 1e6, ActCard: est * 10,
		})
	}
	cl.Train(samples)
	if cl.NumModels() != 1 {
		t.Fatalf("models = %d, want 1", cl.NumModels())
	}
	got := cl.Correct(sig, 2000, 1e6)
	if got < 10000 || got > 40000 {
		t.Fatalf("corrected card = %v, want ~20000", got)
	}
	// Unknown signature falls back to the estimate.
	if got := cl.Correct(plan.Signature(999), 500, 1e6); got != 500 {
		t.Fatalf("fallback = %v, want 500", got)
	}
}

func TestCardLearnerMinSamples(t *testing.T) {
	cl := NewCardLearner(5)
	cl.Train([]CardSample{{Signature: 1, EstCard: 10, BaseCard: 10, ActCard: 100}})
	if cl.NumModels() != 0 {
		t.Fatal("should not learn from a single sample")
	}
}

func TestCardLearnerApply(t *testing.T) {
	c := testCatalog()
	root := buildJoinPlan()
	if err := c.Annotate(root, 1, Estimated); err != nil {
		t.Fatal(err)
	}
	// Train a learner on many instances of the same plan shape.
	var samples []CardSample
	for seed := int64(0); seed < 20; seed++ {
		r := buildJoinPlan()
		if err := c.Annotate(r, seed, Estimated); err != nil {
			t.Fatal(err)
		}
		base := r.BaseCardinality()
		r.Walk(func(n *plan.Physical) {
			samples = append(samples, CardSample{
				Signature: plan.SubgraphSignature(n),
				EstCard:   n.Stats.EstCard,
				BaseCard:  base,
				ActCard:   n.Stats.ActCard,
			})
		})
	}
	cl := NewCardLearner(5)
	cl.Train(samples)
	if cl.NumModels() == 0 {
		t.Fatal("no models learned")
	}

	before := math.Abs(math.Log(root.Stats.EstCard / root.Stats.ActCard))
	cl.Apply(root)
	after := math.Abs(math.Log(root.Stats.EstCard / root.Stats.ActCard))
	if after > before+1e-9 {
		t.Fatalf("CardLearner made root estimate worse: %v -> %v", before, after)
	}
}

// TestCatalogEpoch pins the statistics-epoch contract the template cache
// keys on: every real change advances it, idempotent re-registration (the
// serving layer re-sends `tables` with every recurring request) does not.
func TestCatalogEpoch(t *testing.T) {
	c := NewCatalog(1)
	if c.Epoch() != 0 {
		t.Fatalf("fresh catalog epoch = %d", c.Epoch())
	}
	ts := TableStats{Rows: 100, RowLength: 10}
	if !c.PutTable("t", ts) {
		t.Fatal("new table not reported as a change")
	}
	e1 := c.Epoch()
	if e1 == 0 {
		t.Fatal("new table did not advance the epoch")
	}
	if c.PutTable("t", ts) { // identical: must NOT advance
		t.Fatal("idempotent table re-registration reported as a change")
	}
	if c.Epoch() != e1 {
		t.Fatal("idempotent table re-registration advanced the epoch")
	}
	c.OverrideFilter("p", 0.5, 0.4)
	e2 := c.Epoch()
	c.OverrideFilter("p", 0.5, 0.4) // identical override: must NOT advance
	if c.Epoch() != e2 {
		t.Fatal("idempotent override advanced the epoch")
	}
	if e2 == e1 {
		t.Fatal("new override did not advance the epoch")
	}
	if !c.PutTable("t", TableStats{Rows: 200, RowLength: 10}) {
		t.Fatal("changed table stats not reported as a change")
	}
	if c.Epoch() == e2 {
		t.Fatal("changed table stats did not advance the epoch")
	}
	c.OverrideJoinFanout("j", 1, 0.8)
	c.OverrideAggReduction("g", 0.1, 0.2)
	e3 := c.Epoch()
	c.OverrideJoinFanout("j", 1, 0.8)
	c.OverrideAggReduction("g", 0.1, 0.2)
	if c.Epoch() != e3 {
		t.Fatal("idempotent join/agg overrides advanced the epoch")
	}
}
