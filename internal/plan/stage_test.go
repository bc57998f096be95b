package plan

import (
	"math/rand"
	"slices"
	"testing"
)

// Property: on random plans, TopStage(n) is StageOf(root)[n] for every
// operator that tops its stage, and the bottom part of that stage, up to
// n, for every other operator.
func TestTopStageMatchesStageOf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		root := randomPlan(rng, 7)
		stageOf := StageOf(root)
		root.Walk(func(n *Physical) {
			st, top := stageOf[n], TopStage(n)
			k := slices.Index(st.Ops, n)
			if !slices.Equal(top.Ops, st.Ops[:k+1]) {
				t.Fatalf("plan %d: TopStage(%v) has %d ops, StageOf's stage up to it %d", i, n.Op, len(top.Ops), k+1)
			}
			if top.Partitions != st.Partitions {
				t.Fatalf("plan %d: TopStage(%v).Partitions = %d, StageOf %d", i, n.Op, top.Partitions, st.Partitions)
			}
		})
	}
}

// Property: CloneTopStage copies exactly the operators reachable from the
// root without passing below an Exchange, and shares everything under
// those Exchanges.
func TestCloneTopStageSharesOnlyBelowExchanges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var check func(orig, cp *Physical, shared bool)
	check = func(orig, cp *Physical, shared bool) {
		if (orig == cp) != shared {
			t.Fatalf("%v: shared = %v, want %v", orig.Op, orig == cp, shared)
		}
		if cp.String() != orig.String() {
			t.Fatalf("copy %s differs from %s", cp, orig)
		}
		for i := range orig.Children {
			check(orig.Children[i], cp.Children[i], shared || orig.Op == PExchange)
		}
	}
	for i := 0; i < 300; i++ {
		root := randomPlan(rng, 7)
		check(root, root.CloneTopStage(), false)
	}
}
