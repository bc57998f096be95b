package cascades

import (
	"fmt"
	"sync"
	"testing"

	"cleo/internal/plan"
)

// dedupHeavyQuery builds a shape whose parallel search dedupes heavily:
// every join explores its commuted form, and the commuted expression's
// child tasks request the same (group, props) keys as the original's, so
// with a small pool most workers end up parked on in-flight futures while
// holding their semaphore slots. This is the shape on which the former
// slot-lending scheme (park, give the slot back, re-acquire it with a
// blocking send) deadlocked.
func dedupHeavyQuery() *plan.Logical {
	clicks := plan.NewSelect(plan.NewGet("clicks_d1", "clicks_"), "recent")
	users := plan.NewGet("users_d1", "users_")
	parts := plan.NewGet("parts_d1", "parts_")
	j1 := plan.NewJoin(clicks, users, "clicks.user=users.id", "user")
	j2 := plan.NewJoin(j1, parts, "clicks.part=parts.id", "pkey")
	j3 := plan.NewJoin(j2, plan.NewAggregate(plan.NewGet("clicks_d1", "clicks_"), "user"),
		"c.user=d.user", "user")
	a := plan.NewAggregate(j3, "region")
	return plan.NewOutput(plan.NewSort(a, "region"))
}

// TestSlotLendingDedupHeavy runs the dedup-heavy shape at Parallelism=2
// under -race, repeatedly and concurrently, and requires bit-identical
// results to the sequential search. The tiny pool plus the future-heavy
// shape drives many workers into future waits in optimizeGroup at once; the
// test's name is kept from the slot-lending scheme those waits used to run.
func TestSlotLendingDedupHeavy(t *testing.T) {
	cat := testCatalog()
	q := dedupHeavyQuery()
	seq := defaultOptimizer(cat)
	seq.Parallelism = 1
	want, err := seq.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}

	par := defaultOptimizer(cat)
	par.Parallelism = 2
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				res, err := par.Optimize(q)
				if err != nil {
					errs <- err
					return
				}
				if res.Plan.String() != want.Plan.String() || res.Cost != want.Cost {
					errs <- fmt.Errorf("parallel result diverged from sequential:\nseq: %s\npar: %s",
						want.Plan, res.Plan)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSlotLendingOptimizeAll drives the shared-pool batch path (spawned
// query tasks hold slots for their whole search, including every future
// wait) at Parallelism=2.
func TestSlotLendingOptimizeAll(t *testing.T) {
	cat := testCatalog()
	queries := []*plan.Logical{dedupHeavyQuery(), joinQuery(), dedupHeavyQuery(), simpleQuery()}
	seq := defaultOptimizer(cat)
	seq.Parallelism = 1
	wants, err := seq.OptimizeAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	par := defaultOptimizer(cat)
	par.Parallelism = 2
	for i := 0; i < 8; i++ {
		got, err := par.OptimizeAll(queries)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range queries {
			if got[qi].Plan.String() != wants[qi].Plan.String() || got[qi].Cost != wants[qi].Cost {
				t.Fatalf("query %d diverged under the shared pool", qi)
			}
		}
	}
}
