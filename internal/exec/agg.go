package exec

import (
	"fmt"

	"cleo/internal/plan"
)

// Aggregates group by the operator's key columns and emit one row per
// group shaped as keys + __cnt + __sum (count of input rows, wrapping sum
// of the payload column). Groups are emitted in first-arrival order —
// never Go map iteration order — so both backends produce identical
// streams from identical inputs.

// aggSchema is the output schema of an aggregate node: its de-duplicated
// keys followed by the derived count and sum columns.
func aggSchema(n *plan.Physical) schema {
	out := make(schema, 0, len(n.Keys)+2)
	for _, k := range n.Keys {
		if k == cntCol || k == sumCol || out.index(k) >= 0 {
			continue
		}
		out = append(out, k)
	}
	return append(out, cntCol, sumCol)
}

// partialBuckets spreads each key group of a partial (per-partition)
// aggregate across up to this many sub-groups, keyed by a hash of the
// full row — an order-insensitive stand-in for partition-local grouping.
const partialBuckets = 16

// hashAggIter implements both the full hash aggregate and the partial
// aggregate (extraBuckets > 0): Open drains the child and groups, Next
// streams the groups out in insertion order.
type hashAggIter struct {
	child        iterator
	keyIdx       []int // into child schema (resolved, never -1)
	valIdx       int
	cntIdx       int // ≥0: sum this column as the count (final over partial)
	size         int
	extraBuckets int64

	// Per group, indexed by group number (first-arrival order).
	gKeys   [][]int64
	buckets []int64
	cnt     []int64
	sum     []int64
	hashes  []uint64 // for relinking on growth
	next    []int32  // chain of groups sharing a hash, -1 = end

	// Open-addressed index over group hashes, as in buildTable: linear
	// probing, one slot per distinct hash, at most half the slots used.
	slots []aggSlot
	mask  uint64

	pos int
	out *Batch
}

// aggSlot is one index slot: a group hash and the head of its chain.
type aggSlot struct {
	hash uint64
	head int32 // -1 = empty
}

func (a *hashAggIter) Open() error {
	if err := a.child.Open(); err != nil {
		return err
	}
	a.resetGroups()
	for {
		b, err := a.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			var bucket int64
			h := keyHash(b.Cols, a.keyIdx, i)
			if a.extraBuckets > 0 {
				bucket = int64(rowHash(b.Cols, i) % uint64(a.extraBuckets))
				h = mix64(h ^ uint64(bucket))
			}
			g := a.findGroup(b.Cols, i, h, bucket)
			if a.cntIdx >= 0 {
				// Final stage above a partial aggregate: the partial already
				// counted raw rows into __cnt, so sum those counts instead of
				// counting partial sub-groups — otherwise a two-phase plan's
				// counts would depend on the physical choice.
				a.cnt[g] += b.Cols[a.cntIdx][i]
			} else {
				a.cnt[g]++
			}
			if a.valIdx >= 0 {
				a.sum[g] += b.Cols[a.valIdx][i]
			}
		}
	}
	a.out = getBatch(len(a.keyIdx)+2, a.size)
	return nil
}

// resetGroups empties the group table.
func (a *hashAggIter) resetGroups() {
	a.gKeys = make([][]int64, len(a.keyIdx))
	a.cnt, a.sum, a.buckets, a.hashes, a.next = nil, nil, nil, nil, nil
	a.pos = 0
	a.relink(nextPow2(0))
}

// relink rebuilds the index at the given power-of-two slot count. Chains
// are only ever searched, never emitted, so their order does not matter.
func (a *hashAggIter) relink(slots int) {
	a.slots = make([]aggSlot, slots)
	for i := range a.slots {
		a.slots[i].head = -1
	}
	a.mask = uint64(slots - 1)
	for g, h := range a.hashes {
		s := a.slot(h)
		a.next[g] = a.slots[s].head
		a.slots[s].hash, a.slots[s].head = h, int32(g)
	}
}

// slot returns the index slot holding hash h, or the empty slot where it
// belongs.
func (a *hashAggIter) slot(h uint64) uint64 {
	s := h & a.mask
	for a.slots[s].head != -1 && a.slots[s].hash != h {
		s = (s + 1) & a.mask
	}
	return s
}

// findGroup locates or creates row i's group, verifying key equality
// along the chain of groups whose hash is h.
func (a *hashAggIter) findGroup(cols [][]int64, i int, h uint64, bucket int64) int32 {
	s := a.slot(h)
next:
	for g := a.slots[s].head; g != -1; g = a.next[g] {
		for k, ix := range a.keyIdx {
			if a.gKeys[k][g] != cols[ix][i] {
				continue next
			}
		}
		if a.extraBuckets > 0 && a.buckets[g] != bucket {
			continue
		}
		return g
	}
	g := int32(len(a.cnt))
	for k, ix := range a.keyIdx {
		a.gKeys[k] = append(a.gKeys[k], cols[ix][i])
	}
	if a.extraBuckets > 0 {
		a.buckets = append(a.buckets, bucket)
	}
	a.cnt = append(a.cnt, 0)
	a.sum = append(a.sum, 0)
	a.hashes = append(a.hashes, h)
	a.next = append(a.next, a.slots[s].head)
	a.slots[s].hash, a.slots[s].head = h, g
	if 2*len(a.cnt) > len(a.slots) {
		a.relink(2 * len(a.slots))
	}
	return g
}

func (a *hashAggIter) Next() (*Batch, error) {
	if a.pos >= len(a.cnt) {
		return nil, nil
	}
	n := a.size
	if rem := len(a.cnt) - a.pos; n > rem {
		n = rem
	}
	nk := len(a.keyIdx)
	for k := 0; k < nk; k++ {
		copy(a.out.Cols[k][:n], a.gKeys[k][a.pos:a.pos+n])
	}
	copy(a.out.Cols[nk][:n], a.cnt[a.pos:a.pos+n])
	copy(a.out.Cols[nk+1][:n], a.sum[a.pos:a.pos+n])
	a.out.N = n
	a.pos += n
	return a.out, nil
}

func (a *hashAggIter) Close() {
	putBatch(a.out)
	a.out = nil
	a.gKeys, a.cnt, a.sum, a.buckets, a.hashes, a.next, a.slots = nil, nil, nil, nil, nil, nil, nil
	a.child.Close()
}

// streamAggIter aggregates runs of consecutive equal keys — correct when
// the input is key-clustered, which the optimizer guarantees by placing
// stream aggregates above sorts or merge joins. It is fully pipelined:
// one group's state, no hash table.
type streamAggIter struct {
	child  iterator
	keyIdx []int
	valIdx int
	size   int

	cur     []int64
	cnt     int64
	sum     int64
	started bool
	done    bool
	out     *Batch
}

func (a *streamAggIter) Open() error {
	a.cur = make([]int64, len(a.keyIdx))
	a.cnt, a.sum = 0, 0
	a.started, a.done = false, false
	a.out = getBatch(len(a.keyIdx)+2, a.size)
	return a.child.Open()
}

func (a *streamAggIter) emit(filled *int) {
	// One input batch can close many groups, so the out batch grows on
	// demand rather than pausing mid-batch.
	if *filled >= len(a.out.Cols[0]) {
		n := len(a.out.Cols[0])
		bigger := getBatch(len(a.out.Cols), 2*n)
		for c := range a.out.Cols {
			copy(bigger.Cols[c], a.out.Cols[c])
		}
		putBatch(a.out)
		a.out = bigger
	}
	nk := len(a.keyIdx)
	for k := 0; k < nk; k++ {
		a.out.Cols[k][*filled] = a.cur[k]
	}
	a.out.Cols[nk][*filled] = a.cnt
	a.out.Cols[nk+1][*filled] = a.sum
	*filled++
}

func (a *streamAggIter) Next() (*Batch, error) {
	if a.done {
		return nil, nil
	}
	filled := 0
	for filled < a.size {
		b, err := a.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			if a.started {
				a.emit(&filled)
			}
			a.done = true
			break
		}
		for i := 0; i < b.N; i++ {
			same := a.started
			for k, ix := range a.keyIdx {
				var v int64
				if ix >= 0 {
					v = b.Cols[ix][i]
				}
				if same && a.cur[k] != v {
					same = false
				}
			}
			if !same {
				if a.started {
					a.emit(&filled)
				}
				for k, ix := range a.keyIdx {
					var v int64
					if ix >= 0 {
						v = b.Cols[ix][i]
					}
					a.cur[k] = v
				}
				a.cnt, a.sum = 0, 0
				a.started = true
			}
			a.cnt++
			if a.valIdx >= 0 {
				a.sum += b.Cols[a.valIdx][i]
			}
		}
		// A group can span batches, so only emission (not input) bounds
		// the fill; a filled-up out batch may briefly exceed size by the
		// in-flight batch's group boundaries.
		if filled >= a.size {
			break
		}
	}
	if filled == 0 {
		return nil, nil
	}
	a.out.N = filled
	return a.out, nil
}

func (a *streamAggIter) Close() {
	putBatch(a.out)
	a.out = nil
	a.child.Close()
}

// sortIter materializes its input and emits it in canonical order: the
// sort keys ascending, then every remaining column — a total order, so
// output is independent of input order.
type sortIter struct {
	child  iterator
	keyIdx []int
	size   int

	cs  *colStore
	idx []int32
	pos int
	out *Batch
}

func (s *sortIter) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	var err error
	if s.cs, err = drainStoreAll(s.child); err != nil {
		return err
	}
	s.idx = sortedIndex(s.cs, s.keyIdx)
	s.pos = 0
	s.out = getBatch(len(s.cs.cols), s.size)
	return nil
}

func (s *sortIter) Next() (*Batch, error) {
	if s.pos >= len(s.idx) {
		return nil, nil
	}
	n := s.size
	if rem := len(s.idx) - s.pos; n > rem {
		n = rem
	}
	for i := 0; i < n; i++ {
		r := int(s.idx[s.pos+i])
		for c := range s.cs.cols {
			s.out.Cols[c][i] = s.cs.cols[c][r]
		}
	}
	s.out.N = n
	s.pos += n
	return s.out, nil
}

func (s *sortIter) Close() {
	putBatch(s.out)
	s.out = nil
	s.cs, s.idx = nil, nil
	s.child.Close()
}

// topNIter keeps the N smallest rows (by the canonical sort order) in a
// bounded max-heap while streaming its input, then emits them sorted —
// memory is O(N) regardless of input size.
type topNIter struct {
	child  iterator
	keyIdx []int
	n      int
	size   int

	cs   *colStore
	heap []int32
	idx  []int32
	pos  int
	out  *Batch
}

func (t *topNIter) less(i, j int) bool { return t.cs.compareRows(int(i), int(j), t.keyIdx) < 0 }

func (t *topNIter) siftDown(i int) {
	h := t.heap
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && t.less(int(h[big]), int(h[l])) {
			big = l
		}
		if r < len(h) && t.less(int(h[big]), int(h[r])) {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

func (t *topNIter) siftUp(i int) {
	h := t.heap
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(int(h[p]), int(h[i])) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (t *topNIter) Open() error {
	if err := t.child.Open(); err != nil {
		return err
	}
	t.cs = nil
	t.heap = t.heap[:0]
	for {
		b, err := t.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if t.cs == nil {
			t.cs = newColStore(len(b.Cols), t.n+1)
		}
		for i := 0; i < b.N; i++ {
			if t.cs.n < t.n {
				t.cs.appendRow(b.Cols, i)
				t.heap = append(t.heap, int32(t.cs.n-1))
				t.siftUp(len(t.heap) - 1)
				continue
			}
			// Compare the incoming row against the current maximum by
			// staging it in the store's spare slot.
			if t.n == 0 {
				break
			}
			spare := t.stageRow(b.Cols, i)
			max := int(t.heap[0])
			if t.cs.compareRows(spare, max, t.keyIdx) < 0 {
				t.copyRow(spare, max)
				t.siftDown(0)
			}
		}
	}
	if t.cs == nil {
		t.cs = newColStore(0, 0)
	}
	t.cs.truncate(minInt(t.cs.n, t.n))
	t.idx = sortedIndex(t.cs, t.keyIdx)
	t.pos = 0
	t.out = getBatch(len(t.cs.cols), t.size)
	return nil
}

// stageRow writes the candidate row into index n (the spare slot beyond
// the kept N) and returns its index.
func (t *topNIter) stageRow(cols [][]int64, i int) int {
	if t.cs.n == t.n {
		t.cs.appendRow(cols, i)
	} else {
		for c := range t.cs.cols {
			t.cs.cols[c][t.n] = cols[c][i]
		}
	}
	return t.n
}

func (t *topNIter) copyRow(from, to int) {
	for c := range t.cs.cols {
		t.cs.cols[c][to] = t.cs.cols[c][from]
	}
}

func (t *topNIter) Next() (*Batch, error) {
	if t.pos >= len(t.idx) {
		return nil, nil
	}
	n := t.size
	if rem := len(t.idx) - t.pos; n > rem {
		n = rem
	}
	for i := 0; i < n; i++ {
		r := int(t.idx[t.pos+i])
		for c := range t.cs.cols {
			t.out.Cols[c][i] = t.cs.cols[c][r]
		}
	}
	t.out.N = n
	t.pos += n
	return t.out, nil
}

func (t *topNIter) Close() {
	putBatch(t.out)
	t.out = nil
	t.cs, t.heap, t.idx = nil, nil, nil
	t.child.Close()
}

// truncate drops rows beyond n (the top-n spare slot).
func (cs *colStore) truncate(n int) {
	for c := range cs.cols {
		if len(cs.cols[c]) > n {
			cs.cols[c] = cs.cols[c][:n]
		}
	}
	cs.n = n
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// resolveKeys resolves a node's key columns against its input schema for
// the hashers and canonical comparators. A key column missing from the
// schema is a compile error: it used to resolve to index −1, which keyHash
// and the comparators silently read as the constant 0 — every row landed
// in one hash group and the query returned wrong results with no
// diagnostic.
func resolveKeys(op plan.PhysicalOp, keys []plan.Column, sch schema) ([]int, error) {
	idx := make([]int, len(keys))
	for i, k := range keys {
		if idx[i] = sch.index(k); idx[i] < 0 {
			return nil, fmt.Errorf("exec: %v key column %q is not in its input schema %v", op, k, []plan.Column(sch))
		}
	}
	return idx, nil
}
