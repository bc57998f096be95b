package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cleo/internal/plan"
)

// randStore builds an n-row store of nCols columns with values drawn from
// [0, domain): a small domain gives heavy duplicates.
func randStore(rng *rand.Rand, n, nCols int, domain int64) *colStore {
	cs := newColStore(nCols, n)
	for c := range cs.cols {
		for i := 0; i < n; i++ {
			cs.cols[c] = append(cs.cols[c], rng.Int63n(domain))
		}
	}
	cs.n = n
	return cs
}

// stableIndex is sortedIndex's specification: sort.Stable over the
// canonical row comparator.
func stableIndex(cs *colStore, keyIdx []int) []int32 {
	idx := make([]int32, cs.n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return cs.compareRows(int(idx[a]), int(idx[b]), keyIdx) < 0
	})
	return idx
}

func TestSortedIndexMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type tc struct {
		name string
		cs   *colStore
	}
	var cases []tc
	for i := 0; i < 40; i++ {
		n := rng.Intn(600)
		cases = append(cases,
			tc{fmt.Sprintf("dups/%d", i), randStore(rng, n, 1+rng.Intn(4), 1+rng.Int63n(4))},
			tc{fmt.Sprintf("wide/%d", i), randStore(rng, n, 1+rng.Intn(4), 1<<40)})
	}
	cases = append(cases,
		tc{"empty", randStore(rng, 0, 3, 5)},
		tc{"one", randStore(rng, 1, 3, 5)},
		tc{"all-equal", randStore(rng, 500, 3, 1)})
	sorted := randStore(rng, 500, 3, 6)
	idx := stableIndex(sorted, nil)
	pre, rev := newColStore(3, 500), newColStore(3, 500)
	for i := range idx {
		pre.appendRow(sorted.cols, int(idx[i]))
		rev.appendRow(sorted.cols, int(idx[len(idx)-1-i]))
	}
	cases = append(cases, tc{"presorted", pre}, tc{"reversed", rev})

	for _, c := range cases {
		nCols := len(c.cs.cols)
		keySets := [][]int{nil, {}, {0}, {nCols - 1, 0}, {-1, 0}}
		for _, keys := range keySets {
			got, want := sortedIndex(c.cs, keys), stableIndex(c.cs, keys)
			if !slices.Equal(got, want) {
				t.Fatalf("%s keys=%v: sortedIndex %v, sort.Stable %v", c.name, keys, got, want)
			}
		}
	}
}

// storeIter streams a store in batches of size rows.
type storeIter struct {
	cs   *colStore
	size int
	pos  int
	out  Batch
}

func (s *storeIter) Open() error { s.pos = 0; return nil }
func (s *storeIter) Close()      {}
func (s *storeIter) Next() (*Batch, error) {
	if s.pos >= s.cs.n {
		return nil, nil
	}
	n := min(s.size, s.cs.n-s.pos)
	s.out.Cols = s.out.Cols[:0]
	for _, c := range s.cs.cols {
		s.out.Cols = append(s.out.Cols, c[s.pos:s.pos+n])
	}
	s.out.N = n
	s.pos += n
	return &s.out, nil
}

// drainRows collects an iterator's output row by row, in order.
func drainRows(t *testing.T, it iterator) [][]int64 {
	t.Helper()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var rows [][]int64
	for {
		b, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows
		}
		for i := 0; i < b.N; i++ {
			row := make([]int64, len(b.Cols))
			for c := range b.Cols {
				row[c] = b.Cols[c][i]
			}
			rows = append(rows, row)
		}
	}
}

// TestHashAggFindGroupChainCollisions gives every distinct key the same
// hash, so all groups share one index chain through several growths: each
// key must still get its own group, numbered in first-arrival order.
func TestHashAggFindGroupChainCollisions(t *testing.T) {
	for _, extra := range []int64{0, 3} {
		a := &hashAggIter{keyIdx: []int{0, 1}, valIdx: -1, cntIdx: -1, extraBuckets: extra}
		a.resetGroups()
		const distinct = 300 // 32 slots at the start: four growths
		cols := [][]int64{make([]int64, 0, 2*distinct), make([]int64, 0, 2*distinct)}
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < distinct; k++ {
				// Each key column repeats on its own, so equality must
				// check both.
				cols[0] = append(cols[0], int64(k/10))
				cols[1] = append(cols[1], int64(k%10))
			}
		}
		bucketOf := func(i int) int64 {
			if extra == 0 {
				return 0
			}
			return int64(i % distinct % int(extra))
		}
		for i := range cols[0] {
			g := a.findGroup(cols, i, 42, bucketOf(i))
			if want := int32(i % distinct); g != want {
				t.Fatalf("extra=%d: row %d (key %d,%d) in group %d, want %d", extra, i, cols[0][i], cols[1][i], g, want)
			}
		}
		if extra > 0 {
			// Same key, another bucket: a new sub-group.
			if g := a.findGroup(cols, 0, 42, 1); g != distinct {
				t.Fatalf("same key in another bucket joined group %d, want new group %d", g, distinct)
			}
		}
		if len(a.slots) < 2*len(a.cnt) {
			t.Fatalf("%d groups in %d slots: index not grown", len(a.cnt), len(a.slots))
		}
	}
}

// TestHashAggMatchesReference runs the streaming aggregate and the
// reference evaluator's independent map-based one over the same input and
// requires identical output, row for row in first-arrival order.
func TestHashAggMatchesReference(t *testing.T) {
	sch := schema{"a", "b", valCol}
	cases := []struct {
		name   string
		op     plan.PhysicalOp
		keys   []plan.Column
		rows   int
		domain int64
	}{
		{"one-key", plan.PHashAggregate, []plan.Column{"a"}, 5000, 50},
		{"two-keys", plan.PHashAggregate, []plan.Column{"a", "b"}, 5000, 30},
		{"global", plan.PHashAggregate, nil, 3000, 1 << 20},
		{"partial", plan.PPartialAggregate, []plan.Column{"b"}, 5000, 20},
		{"partial-two-keys", plan.PPartialAggregate, []plan.Column{"b", "a"}, 5000, 8},
		{"many-groups", plan.PHashAggregate, []plan.Column{"a", "b"}, 40000, 1 << 20},
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs := randStore(rng, c.rows, len(sch), c.domain)
			n := plan.NewPhysical(c.op, plan.NewPhysical(plan.PExtract))
			n.Keys = c.keys
			var extra int64
			if c.op == plan.PPartialAggregate {
				extra = partialBuckets
			}
			ref, err := (&Reference{}).hashAgg(n, &refTable{sch: sch, cs: cs}, extra)
			if err != nil {
				t.Fatal(err)
			}
			osch := aggSchema(n)
			keyIdx, err := resolveKeys(n.Op, osch[:len(osch)-2], sch)
			if err != nil {
				t.Fatal(err)
			}
			got := drainRows(t, &hashAggIter{
				child: &storeIter{cs: cs, size: 333}, keyIdx: keyIdx,
				valIdx: sch.valIndex(), cntIdx: -1, size: 256, extraBuckets: extra,
			})
			if len(got) != ref.cs.n {
				t.Fatalf("%d groups, reference %d", len(got), ref.cs.n)
			}
			if c.name == "many-groups" && len(got) < 30000 {
				t.Fatalf("only %d groups: too few to grow the index several times", len(got))
			}
			for i, row := range got {
				for col, v := range row {
					if want := ref.cs.cols[col][i]; v != want {
						t.Fatalf("group %d column %v = %d, reference %d", i, osch[col], v, want)
					}
				}
			}
		})
	}
}

func BenchmarkSortedIndex(b *testing.B) {
	cs := randStore(rand.New(rand.NewSource(1)), 1<<16, 4, 1<<12)
	keys := []int{1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortedIndex(cs, keys)
	}
}

func BenchmarkHashAggregate(b *testing.B) {
	cs := randStore(rand.New(rand.NewSource(1)), 1<<16, 3, 1<<12)
	it := &hashAggIter{
		child: &storeIter{cs: cs, size: 1024}, keyIdx: []int{0},
		valIdx: 2, cntIdx: -1, size: 1024,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := it.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			bt, err := it.Next()
			if err != nil {
				b.Fatal(err)
			}
			if bt == nil {
				break
			}
		}
		it.Close()
	}
}
