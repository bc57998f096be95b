package exec

import (
	"cmp"
	"slices"
)

// Equi-join iterators. All three variants share conventions with the
// simulator's cost model: child 0 is the probe/left input, child 1 the
// build/right input, and the join output is shaped like the LEFT input —
// a matched pair emits the left row with its payload combined with the
// right row's payload (wrapping add, so the combination is order-free).

// keyHash hashes the join-key tuple of row i. Missing key columns (idx
// -1) contribute the constant 0, identically on both sides.
func keyHash(cols [][]int64, idxs []int, i int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, ix := range idxs {
		var v int64
		if ix >= 0 {
			v = cols[ix][i]
		}
		h = mix64(h ^ uint64(v))
	}
	return h
}

// buildTable is a drained, hashed join input: key columns plus payload,
// stored columnar, with a pre-sized open-addressed hash index over the key
// tuple (linear probing, one slot per distinct key hash). Rows sharing a
// key chain in insertion order, so candidates emit in the same order the
// reference evaluator produces them.
type buildTable struct {
	keys    [][]int64 // one slice per join key
	val     []int64
	rowHash []uint64 // per row, for cheap reindexing on growth

	slots []joinSlot // open-addressed index
	next  []int32    // per row, -1 = end of chain
	mask  uint64
	n     int
}

// joinSlot packs a slot's key hash and chain ends into 16 bytes so a probe
// resolves its slot with a single cache-line touch.
type joinSlot struct {
	hash       uint64
	head, tail int32 // head -1 = empty
}

func nextPow2(n int) int {
	p := 32
	for p < n {
		p <<= 1
	}
	return p
}

func newBuildTable(nKeys, sizeHint int) *buildTable {
	if sizeHint < 16 {
		sizeHint = 16
	}
	if sizeHint > 1<<20 {
		sizeHint = 1 << 20
	}
	bt := &buildTable{keys: make([][]int64, nKeys)}
	for i := range bt.keys {
		bt.keys[i] = make([]int64, 0, sizeHint)
	}
	bt.val = make([]int64, 0, sizeHint)
	bt.rowHash = make([]uint64, 0, sizeHint)
	bt.next = make([]int32, 0, sizeHint)
	bt.reindex(nextPow2(2 * sizeHint))
	return bt
}

// reindex rebuilds the slot arrays at the given power-of-two capacity and
// relinks every stored row; chains keep insertion order because rows
// relink in row order.
func (bt *buildTable) reindex(slots int) {
	bt.slots = make([]joinSlot, slots)
	for i := range bt.slots {
		bt.slots[i].head = -1
	}
	bt.mask = uint64(slots - 1)
	for r := 0; r < bt.n; r++ {
		bt.link(bt.rowHash[r], int32(r))
	}
}

// link appends row to its key-hash chain, claiming a slot by linear
// probing. Occupied slots never exceed half the table (add grows first),
// so the probe always terminates.
func (bt *buildTable) link(h uint64, row int32) {
	s := h & bt.mask
	for bt.slots[s].head != -1 && bt.slots[s].hash != h {
		s = (s + 1) & bt.mask
	}
	bt.next[row] = -1
	if bt.slots[s].head == -1 {
		bt.slots[s].hash = h
		bt.slots[s].head = row
	} else {
		bt.next[bt.slots[s].tail] = row
	}
	bt.slots[s].tail = row
}

// add inserts row i of cols, reading keys via keyIdx and payload via
// valIdx (-1 = 0).
func (bt *buildTable) add(cols [][]int64, keyIdx []int, valIdx, i int) {
	h := keyHash(cols, keyIdx, i)
	for k, ix := range keyIdx {
		var v int64
		if ix >= 0 {
			v = cols[ix][i]
		}
		bt.keys[k] = append(bt.keys[k], v)
	}
	var v int64
	if valIdx >= 0 {
		v = cols[valIdx][i]
	}
	bt.val = append(bt.val, v)
	bt.rowHash = append(bt.rowHash, h)
	bt.next = append(bt.next, -1)
	row := int32(bt.n)
	bt.n++
	if 2*bt.n > len(bt.slots) {
		bt.reindex(2 * len(bt.slots)) // relinks row too
	} else {
		bt.link(h, row)
	}
}

// probeHeads resolves every probe row's chain head in one pass and
// appends them to dst (-1 = no hash match). Consecutive rows' slot
// lookups are independent, so the CPU overlaps their cache misses —
// worth ~2x over probing row-at-a-time on large build tables.
func (bt *buildTable) probeHeads(cols [][]int64, keyIdx []int, n int, dst []int32) []int32 {
	slots, mask := bt.slots, bt.mask
	if len(keyIdx) == 1 && keyIdx[0] >= 0 {
		col := cols[keyIdx[0]]
		for i := 0; i < n; i++ {
			h := mix64(0x9e3779b97f4a7c15 ^ uint64(col[i]))
			s := h & mask
			for slots[s].head != -1 && slots[s].hash != h {
				s = (s + 1) & mask
			}
			dst = append(dst, slots[s].head)
		}
		return dst
	}
	for i := 0; i < n; i++ {
		h := keyHash(cols, keyIdx, i)
		s := h & mask
		for slots[s].head != -1 && slots[s].hash != h {
			s = (s + 1) & mask
		}
		dst = append(dst, slots[s].head)
	}
	return dst
}

// matches verifies hash candidates by key equality and appends true
// matches to dst.
func (bt *buildTable) matches(cols [][]int64, keyIdx []int, i int, dst []int32) []int32 {
	h := keyHash(cols, keyIdx, i)
	s := h & bt.mask
	for bt.slots[s].head != -1 && bt.slots[s].hash != h {
		s = (s + 1) & bt.mask
	}
	m := bt.slots[s].head
	if m == -1 {
		return dst
	}
	if len(keyIdx) == 1 {
		// Single-key joins dominate; verify with a branch-free chain walk.
		var v int64
		if ix := keyIdx[0]; ix >= 0 {
			v = cols[ix][i]
		}
		k0, next := bt.keys[0], bt.next
		for ; m != -1; m = next[m] {
			if k0[m] == v {
				dst = append(dst, m)
			}
		}
		return dst
	}
next:
	for ; m != -1; m = bt.next[m] {
		for k, ix := range keyIdx {
			var v int64
			if ix >= 0 {
				v = cols[ix][i]
			}
			if bt.keys[k][m] != v {
				continue next
			}
		}
		dst = append(dst, m)
	}
	return dst
}

// hashJoinIter is the classic blocking hash join: Open drains the build
// (right) child into a pre-sized buildTable, Next streams the probe
// (left) child against it. Matches are emitted in probe order, and within
// one probe row in build-insertion order — the same order the reference
// evaluator produces.
type hashJoinIter struct {
	left, right iterator
	lKey, rKey  []int
	lVal, rVal  int
	nCols       int
	sizeHint    int
	size        int

	build *buildTable
	out   *Batch
	pb    *Batch
	pi    int
	heads []int32 // per probe row, chain head (-1 = none)
	cm    int32   // cursor into the current row's chain; -2 = row not started
}

func (j *hashJoinIter) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	j.build = newBuildTable(len(j.rKey), j.sizeHint)
	for {
		b, err := j.right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			j.build.add(b.Cols, j.rKey, j.rVal, i)
		}
	}
	j.out = getBatch(j.nCols, j.size)
	j.pb, j.pi, j.cm = nil, 0, -2
	j.heads = j.heads[:0]
	return nil
}

// Next probes in two passes per input batch: probeHeads resolves every
// row's chain head up front (overlapping the hash-index cache misses),
// then the emission loop walks chains, verifies keys and copies matches.
func (j *hashJoinIter) Next() (*Batch, error) {
	filled := 0
	singleKey := len(j.lKey) == 1 && j.lKey[0] >= 0 && len(j.build.keys) == 1
	for {
		if j.pb == nil {
			b, err := j.left.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				if filled > 0 {
					j.out.N = filled
					return j.out, nil
				}
				return nil, nil
			}
			j.pb, j.pi, j.cm = b, 0, -2
			j.heads = j.build.probeHeads(b.Cols, j.lKey, b.N, j.heads[:0])
		}
		cols, next, bval := j.pb.Cols, j.build.next, j.build.val
		for j.pi < j.pb.N {
			m := j.cm
			if m == -2 {
				m = j.heads[j.pi]
			}
			if singleKey {
				k0, v := j.build.keys[0], cols[j.lKey[0]][j.pi]
				for m != -1 {
					if k0[m] != v {
						m = next[m]
						continue
					}
					if filled == j.size {
						j.cm = m
						j.out.N = filled
						return j.out, nil // out full mid-chain; resume at m
					}
					for c := 0; c < j.nCols; c++ {
						j.out.Cols[c][filled] = cols[c][j.pi]
					}
					if j.lVal >= 0 {
						j.out.Cols[j.lVal][filled] = cols[j.lVal][j.pi] + bval[m]
					}
					filled++
					m = next[m]
				}
			} else {
			chain:
				for m != -1 {
					for k, ix := range j.lKey {
						var v int64
						if ix >= 0 {
							v = cols[ix][j.pi]
						}
						if j.build.keys[k][m] != v {
							m = next[m]
							continue chain
						}
					}
					if filled == j.size {
						j.cm = m
						j.out.N = filled
						return j.out, nil
					}
					for c := 0; c < j.nCols; c++ {
						j.out.Cols[c][filled] = cols[c][j.pi]
					}
					if j.lVal >= 0 {
						j.out.Cols[j.lVal][filled] = cols[j.lVal][j.pi] + bval[m]
					}
					filled++
					m = next[m]
				}
			}
			j.cm = -2
			j.pi++
		}
		j.pb = nil
		if filled >= j.size {
			j.out.N = filled
			return j.out, nil
		}
	}
}

func (j *hashJoinIter) Close() {
	putBatch(j.out)
	j.out = nil
	j.build = nil
	j.left.Close()
	j.right.Close()
}

// symmetricHashJoinIter joins two live streams without blocking on either:
// both sides build hash tables incrementally, and each arriving batch
// probes the other side's table-so-far. Every matching pair is emitted
// exactly once (when its later row arrives), so the output multiset equals
// the classic join's — but the emission order depends on arrival
// interleaving, which is why the planner only picks this variant when no
// order-sensitive operator consumes it.
type symmetricHashJoinIter struct {
	left, right iterator
	lKey, rKey  []int
	lVal, rVal  int
	nCols       int
	sizeHint    int
	size        int

	lRows *colStore   // full left rows, for right-arrival emissions
	lTab  *buildTable // left keys indexed (payload unused; lRows holds it)
	rTab  *buildTable

	lDone, rDone bool
	pullLeft     bool
	out          *Batch
	cand         []int32
}

func (j *symmetricHashJoinIter) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	j.lRows = newColStore(j.nCols, j.sizeHint)
	j.lTab = newBuildTable(len(j.lKey), j.sizeHint)
	j.rTab = newBuildTable(len(j.rKey), j.sizeHint)
	j.lDone, j.rDone = false, false
	j.pullLeft = true
	j.out = getBatch(j.nCols, j.size)
	return nil
}

func (j *symmetricHashJoinIter) emitLeftRow(cols [][]int64, i int, rightVal int64, filled *int) {
	if *filled >= len(j.out.Cols[0]) {
		j.growOut()
	}
	for c := 0; c < j.nCols; c++ {
		j.out.Cols[c][*filled] = cols[c][i]
	}
	if j.lVal >= 0 {
		j.out.Cols[j.lVal][*filled] = cols[j.lVal][i] + rightVal
	}
	*filled++
}

// growOut doubles the output batch: one input batch can match arbitrarily
// many stored rows, and a symmetric join step is atomic.
func (j *symmetricHashJoinIter) growOut() {
	n := len(j.out.Cols[0])
	bigger := getBatch(j.nCols, 2*n)
	for c := range j.out.Cols {
		copy(bigger.Cols[c], j.out.Cols[c])
	}
	putBatch(j.out)
	j.out = bigger
}

func (j *symmetricHashJoinIter) Next() (*Batch, error) {
	filled := 0
	for filled == 0 {
		if j.lDone && j.rDone {
			return nil, nil
		}
		// Strict alternation keeps both tables balanced and the join
		// non-blocking on either input.
		fromLeft := j.pullLeft && !j.lDone || j.rDone
		j.pullLeft = !j.pullLeft
		if fromLeft {
			b, err := j.left.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				j.lDone = true
				continue
			}
			for i := 0; i < b.N; i++ {
				j.cand = j.rTab.matches(b.Cols, j.lKey, i, j.cand[:0])
				for _, m := range j.cand {
					j.emitLeftRow(b.Cols, i, j.rTab.val[m], &filled)
				}
				j.lTab.add(b.Cols, j.lKey, -1, i)
				j.lRows.appendRow(b.Cols, i)
			}
		} else {
			b, err := j.right.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				j.rDone = true
				continue
			}
			for i := 0; i < b.N; i++ {
				var rv int64
				if j.rVal >= 0 {
					rv = b.Cols[j.rVal][i]
				}
				j.cand = j.lTab.matches(b.Cols, j.rKey, i, j.cand[:0])
				for _, m := range j.cand {
					j.emitLeftRow(j.lRows.cols, int(m), rv, &filled)
				}
				j.rTab.add(b.Cols, j.rKey, j.rVal, i)
			}
		}
	}
	j.out.N = filled
	return j.out, nil
}

func (j *symmetricHashJoinIter) Close() {
	putBatch(j.out)
	j.out = nil
	j.lRows, j.lTab, j.rTab = nil, nil, nil
	j.left.Close()
	j.right.Close()
}

// mergeJoinIter materializes and canonically sorts both inputs by the
// join keys (then by every column, for a total order), then merges
// equal-key runs with a nested cross product. Because the sort is
// canonical, its output order is independent of input order — the merge
// join doubles as an order-restoring barrier above a symmetric join.
type mergeJoinIter struct {
	left, right iterator
	lKey, rKey  []int
	lVal, rVal  int
	nCols       int
	size        int

	ls, rs     *colStore
	lIdx, rIdx []int32
	li, ri     int
	out        *Batch

	// current equal-key run and cursors within it
	l1, r1, cl, cr int
	inRun          bool
}

// sortedIndex returns the permutation that lists cs's rows in canonical
// order (compareRows over keyIdx). Rows that compare equal — exact
// duplicates — keep their input order: the row index is the final
// tie-break, so the order is strict and the permutation is the one a
// stable sort gives, from an unstable O(n log n) sort.
func sortedIndex(cs *colStore, keyIdx []int) []int32 {
	idx := make([]int32, cs.n)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cs.compareRows(int(a), int(b), keyIdx); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return idx
}

// compareKeys orders the key tuple of ls[li] against rs[ri].
func compareKeys(ls *colStore, li int, lKey []int, rs *colStore, ri int, rKey []int) int {
	for k := range lKey {
		var lv, rv int64
		if lKey[k] >= 0 {
			lv = ls.cols[lKey[k]][li]
		}
		if rKey[k] >= 0 {
			rv = rs.cols[rKey[k]][ri]
		}
		if lv != rv {
			if lv < rv {
				return -1
			}
			return 1
		}
	}
	return 0
}

func (j *mergeJoinIter) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	var err error
	if j.ls, err = drainStoreAll(j.left); err != nil {
		return err
	}
	if j.rs, err = drainStoreAll(j.right); err != nil {
		return err
	}
	j.lIdx = sortedIndex(j.ls, j.lKey)
	j.rIdx = sortedIndex(j.rs, j.rKey)
	j.li, j.ri, j.inRun = 0, 0, false
	j.out = getBatch(j.nCols, j.size)
	return nil
}

// drainStoreAll materializes an input whose width is discovered from its
// first batch (the right side of a merge join may have any schema).
func drainStoreAll(it iterator) (*colStore, error) {
	var cs *colStore
	for {
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			if cs == nil {
				cs = newColStore(0, 0)
			}
			return cs, nil
		}
		if cs == nil {
			cs = newColStore(len(b.Cols), DefaultBatchSize)
		}
		for i := 0; i < b.N; i++ {
			cs.appendRow(b.Cols, i)
		}
	}
}

func (j *mergeJoinIter) Next() (*Batch, error) {
	filled := 0
	for {
		if !j.inRun {
			// Advance to the next pair of equal-key runs.
			for j.li < len(j.lIdx) && j.ri < len(j.rIdx) {
				c := compareKeys(j.ls, int(j.lIdx[j.li]), j.lKey, j.rs, int(j.rIdx[j.ri]), j.rKey)
				if c < 0 {
					j.li++
				} else if c > 0 {
					j.ri++
				} else {
					break
				}
			}
			if j.li >= len(j.lIdx) || j.ri >= len(j.rIdx) {
				if filled > 0 {
					j.out.N = filled
					return j.out, nil
				}
				return nil, nil
			}
			j.l1 = j.li + 1
			for j.l1 < len(j.lIdx) &&
				compareKeys(j.ls, int(j.lIdx[j.l1]), j.lKey, j.rs, int(j.rIdx[j.ri]), j.rKey) == 0 {
				j.l1++
			}
			j.r1 = j.ri + 1
			for j.r1 < len(j.rIdx) &&
				compareKeys(j.ls, int(j.lIdx[j.li]), j.lKey, j.rs, int(j.rIdx[j.r1]), j.rKey) == 0 {
				j.r1++
			}
			j.cl, j.cr = j.li, j.ri
			j.inRun = true
		}
		for j.cl < j.l1 {
			l := int(j.lIdx[j.cl])
			for j.cr < j.r1 && filled < j.size {
				r := int(j.rIdx[j.cr])
				for c := 0; c < j.nCols; c++ {
					j.out.Cols[c][filled] = j.ls.cols[c][l]
				}
				if j.lVal >= 0 {
					var rv int64
					if j.rVal >= 0 {
						rv = j.rs.cols[j.rVal][r]
					}
					j.out.Cols[j.lVal][filled] = j.ls.cols[j.lVal][l] + rv
				}
				j.cr++
				filled++
			}
			if j.cr < j.r1 {
				j.out.N = filled
				return j.out, nil // out full mid-run
			}
			j.cr = j.ri
			j.cl++
		}
		j.inRun = false
		j.li, j.ri = j.l1, j.r1
		if filled >= j.size {
			j.out.N = filled
			return j.out, nil
		}
	}
}

func (j *mergeJoinIter) Close() {
	putBatch(j.out)
	j.out = nil
	j.ls, j.rs = nil, nil
	j.left.Close()
	j.right.Close()
}
