package exec

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/types"
)

// SortKey orders by one expression.
type SortKey struct {
	E    Expr
	Desc bool
}

// sortOutCap is the output batch size of the sort/Top-K emit pipeline.
const sortOutCap = 1024

// Sort materializes the input into typed columns and emits it ordered
// by the keys. Instead of sorting boxed key rows, it sorts an []int32
// permutation with type-specialized comparators over the key vectors
// and assembles output batches by permutation gather.
//
// The output batch is reused across calls: a returned batch is valid
// only until the next Next or Reset.
type Sort struct {
	in   Operator
	keys []SortKey

	done  bool
	store *types.Batch
	perm  []int32
	pos   int
	out   *types.Batch
}

// NewSort wraps in with an ORDER BY.
func NewSort(in Operator, keys []SortKey) *Sort { return &Sort{in: in, keys: keys} }

// Schema implements Operator.
func (s *Sort) Schema() *types.Schema { return s.in.Schema() }

// Next implements Operator: the first call drains and sorts; every call
// emits one gathered batch until the permutation is exhausted.
func (s *Sort) Next() (*types.Batch, error) {
	if !s.done {
		if err := s.drainAndSort(); err != nil {
			return nil, err
		}
		s.done = true
	}
	n := len(s.perm)
	if s.pos >= n {
		return nil, nil
	}
	if s.out == nil {
		s.out = types.NewBatch(s.in.Schema(), sortOutCap)
	}
	end := s.pos + sortOutCap
	if end > n {
		end = n
	}
	s.out.Reset()
	s.out.GatherAppend(s.store, s.perm[s.pos:end])
	s.pos = end
	return s.out, nil
}

// drainAndSort materializes the input into per-worker stores stitched
// into one (see stitchStores), then sorts the permutation with one run
// per drain worker. The row order feeding the sort is unordered for a
// parallel drain, as for any parallel scan; the sort itself orders the
// output, with ties broken by stitched position.
func (s *Sort) drainAndSort() error {
	if s.store == nil {
		s.store = types.NewBatch(s.in.Schema(), sortOutCap)
	}
	workers := drainWidth(s.in)
	stores := make([]*types.Batch, workers)
	stores[0] = s.store
	err := drain(s.in, func(w int, b *types.Batch) error {
		if stores[w] == nil {
			stores[w] = types.NewBatch(s.in.Schema(), sortOutCap)
		}
		stores[w].AppendBatch(b)
		return nil
	})
	if err != nil {
		return err
	}
	s.store = stitchStores(stores)
	n := s.store.PhysLen()
	keyVecs := materializeSortKeys(s.store, s.in.Schema(), s.keys)
	s.perm = grow(s.perm, n)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	sortPermutationParallel(s.perm, keyVecs, s.keys, workers)
	return nil
}

// Reset implements Operator.
func (s *Sort) Reset() {
	s.in.Reset()
	s.done = false
	s.pos = 0
	s.perm = s.perm[:0]
	if s.store != nil {
		s.store.Reset()
	}
}

// materializeSortKeys returns one typed vector per sort key over the
// dense store: column references alias the stored column directly;
// computed keys are evaluated once into a fresh vector (so the
// comparators below never re-evaluate an expression).
func materializeSortKeys(store *types.Batch, schema *types.Schema, keys []SortKey) []*types.Vector {
	out := make([]*types.Vector, len(keys))
	n := store.PhysLen()
	for k, sk := range keys {
		if cr, ok := sk.E.(*ColRef); ok {
			out[k] = store.Cols[cr.Idx]
			continue
		}
		v := types.NewVector(sk.E.Type(schema), n)
		for i := 0; i < n; i++ {
			v.Append(sk.E.Eval(store, i))
		}
		out[k] = v
	}
	return out
}

// sortPermutation orders perm by the key vectors (a final perm-index
// tiebreak keeps the result stable without sort.SliceStable's overhead).
func sortPermutation(perm []int32, keyVecs []*types.Vector, keys []SortKey) {
	if len(keyVecs) == 1 {
		cmp := makeKeyCmp(keyVecs[0], keys[0].Desc)
		sort.Slice(perm, func(x, y int) bool {
			a, b := perm[x], perm[y]
			if c := cmp(a, b); c != 0 {
				return c < 0
			}
			return a < b
		})
		return
	}
	cmps := make([]func(a, b int32) int, len(keyVecs))
	for k := range keyVecs {
		cmps[k] = makeKeyCmp(keyVecs[k], keys[k].Desc)
	}
	sort.Slice(perm, func(x, y int) bool {
		a, b := perm[x], perm[y]
		for _, cmp := range cmps {
			if c := cmp(a, b); c != 0 {
				return c < 0
			}
		}
		return a < b
	})
}

// minParallelSortRows is the input size below which parallel run
// generation is not worth the fan-out overhead.
const minParallelSortRows = 8192

// sortPermutationParallel sorts perm by generating `workers` sorted runs
// concurrently and merging them pairwise — also concurrently — until one
// run remains (k-way merge as log2(k) parallel rounds). Ties prefer the
// lower permutation index, so the result is identical to the serial
// sortPermutation over the same input order.
func sortPermutationParallel(perm []int32, keyVecs []*types.Vector, keys []SortKey, workers int) {
	n := len(perm)
	if workers <= 1 || n < minParallelSortRows {
		sortPermutation(perm, keyVecs, keys)
		return
	}
	// Contiguous runs of near-equal size; each holds a disjoint,
	// ascending index range of the identity permutation.
	type span struct{ lo, hi int }
	runs := make([]span, 0, workers)
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		runs = append(runs, span{lo, hi})
	}
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sortPermutation(perm[lo:hi], keyVecs, keys)
		}(r.lo, r.hi)
	}
	wg.Wait()
	cmps := make([]func(a, b int32) int, len(keyVecs))
	for k := range keyVecs {
		cmps[k] = makeKeyCmp(keyVecs[k], keys[k].Desc)
	}
	cmp := func(a, b int32) int {
		for _, c := range cmps {
			if v := c(a, b); v != 0 {
				return v
			}
		}
		// Index tiebreak keeps the merge stable and the result equal to
		// the serial sort.
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	src, dst := perm, make([]int32, n)
	for len(runs) > 1 {
		next := runs[:0:0]
		var mwg sync.WaitGroup
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				lo, hi := runs[i].lo, runs[i].hi
				copy(dst[lo:hi], src[lo:hi])
				next = append(next, runs[i])
				continue
			}
			a, b := runs[i], runs[i+1]
			next = append(next, span{a.lo, b.hi})
			mwg.Add(1)
			go func(a, b span) {
				defer mwg.Done()
				mergeRuns(dst[a.lo:b.hi], src[a.lo:a.hi], src[b.lo:b.hi], cmp)
			}(a, b)
		}
		mwg.Wait()
		src, dst = dst, src
		runs = next
	}
	if &src[0] != &perm[0] {
		copy(perm, src)
	}
}

// mergeRuns merges two sorted runs into out (len(out) = len(a)+len(b)).
func mergeRuns(out, a, b []int32, cmp func(x, y int32) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp(a[i], b[j]) <= 0 {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// makeKeyCmp builds a type-specialized three-way comparator over one
// key vector. NULL sorts before every non-null value (types.Compare
// semantics); Desc flips the whole order, NULLs included.
func makeKeyCmp(v *types.Vector, desc bool) func(a, b int32) int {
	sign := 1
	if desc {
		sign = -1
	}
	nulls := v.Nulls
	hasNulls := nulls.AnyNull()
	switch v.Typ {
	case types.Int64, types.Bool:
		vals := v.Ints
		return func(a, b int32) int {
			if hasNulls {
				if c, done := cmpNulls(nulls, a, b); done {
					return c * sign
				}
			}
			av, bv := vals[a], vals[b]
			switch {
			case av < bv:
				return -sign
			case av > bv:
				return sign
			default:
				return 0
			}
		}
	case types.Float64:
		vals := v.Floats
		return func(a, b int32) int {
			if hasNulls {
				if c, done := cmpNulls(nulls, a, b); done {
					return c * sign
				}
			}
			return cmpFloatKey(vals[a], vals[b]) * sign
		}
	default: // String
		vals := v.Strings
		return func(a, b int32) int {
			if hasNulls {
				if c, done := cmpNulls(nulls, a, b); done {
					return c * sign
				}
			}
			return strings.Compare(vals[a], vals[b]) * sign
		}
	}
}

// cmpNulls resolves the NULL half of a comparison: done=true means at
// least one side was NULL and c is the (ascending) ordering.
func cmpNulls(nulls *types.NullMask, a, b int32) (c int, done bool) {
	an, bn := nulls.IsNull(int(a)), nulls.IsNull(int(b))
	switch {
	case an && bn:
		return 0, true
	case an:
		return -1, true
	case bn:
		return 1, true
	default:
		return 0, false
	}
}

// TopN is a fused ORDER BY + LIMIT: it retains only candidate rows for
// the best n in a bounded typed buffer instead of materializing and
// sorting the whole input — the Top-K path the planner selects when
// ORDER BY is followed by LIMIT.
//
// The selection works threshold-style rather than with a per-row heap:
// incoming batches have their key columns evaluated once, rows that
// cannot beat the current worst retained key are skipped, survivors are
// bulk-gathered into the buffer, and whenever the buffer overflows its
// budget it is pruned back to the best n by permutation sort (which
// also tightens the threshold). Amortized cost is O(rows + k·log k·
// prunes) with no types.Row boxing anywhere.
type TopN struct {
	in   Operator
	keys []SortKey
	n    int

	desc    []bool
	keyCols []int // input column per key, -1 = computed expression

	done      bool
	buf       *types.Batch // candidate rows
	spare     *types.Batch
	bufKeys   []*types.Vector // key columns of buf, parallel to keys
	spareKeys []*types.Vector
	thrValid  bool  // a threshold is installed (at least one prune kept n rows)
	thrRow    int32 // buffer row holding the admission threshold key

	scratchKeys []*types.Vector // key columns of the current input batch
	candPhys    []int32         // admitted rows: physical index in batch
	candLog     []int32         // admitted rows: logical index (for keys)
	perm        []int32
	pos         int
	out         *types.Batch
}

// NewTopN returns the first n rows of in under the sort keys.
func NewTopN(in Operator, keys []SortKey, n int) *TopN {
	t := &TopN{in: in, keys: keys, n: n, desc: make([]bool, len(keys)), keyCols: make([]int, len(keys))}
	for k, sk := range keys {
		t.desc[k] = sk.Desc
		t.keyCols[k] = -1
		if cr, ok := sk.E.(*ColRef); ok {
			t.keyCols[k] = cr.Idx
		}
	}
	return t
}

// Schema implements Operator.
func (t *TopN) Schema() *types.Schema { return t.in.Schema() }

// pruneBudget is the buffer size that triggers a prune back to n.
func (t *TopN) pruneBudget() int {
	b := 2 * t.n
	if b < sortOutCap {
		b = sortOutCap
	}
	return b
}

// Next implements Operator: the first call drains the input through the
// bounded buffer; every call emits one gathered batch of the final
// order.
func (t *TopN) Next() (*types.Batch, error) {
	if !t.done {
		if err := t.drain(); err != nil {
			return nil, err
		}
		t.done = true
	}
	limit := len(t.perm)
	if limit > t.n {
		limit = t.n
	}
	if t.pos >= limit {
		return nil, nil
	}
	if t.out == nil {
		t.out = types.NewBatch(t.in.Schema(), sortOutCap)
	}
	end := t.pos + sortOutCap
	if end > limit {
		end = limit
	}
	t.out.Reset()
	t.out.GatherAppend(t.buf, t.perm[t.pos:end])
	t.pos = end
	return t.out, nil
}

func (t *TopN) drain() error {
	t.ensureBuffers()
	for {
		b, err := t.in.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if t.n <= 0 {
			continue // LIMIT 0: drain without retaining
		}
		t.absorb(b)
		if t.buf.PhysLen() >= t.pruneBudget() {
			t.prune()
		}
	}
	// Final ordering over whatever is buffered.
	n := t.buf.PhysLen()
	t.perm = grow(t.perm, n)
	for i := range t.perm {
		t.perm[i] = int32(i)
	}
	sortPermutation(t.perm, t.bufKeys, t.keys)
	return nil
}

// absorb evaluates the batch's key columns, admits the rows that can
// still make the top n, and bulk-gathers them into the buffer.
func (t *TopN) absorb(b *types.Batch) {
	n := b.Len()
	t.evalKeys(b)
	t.candPhys = t.candPhys[:0]
	t.candLog = t.candLog[:0]
	for i := 0; i < n; i++ {
		if t.thrValid {
			// Keys are materialized dense-logical; the threshold (the
			// worst of the best n at the last prune — conservative but
			// correct between prunes) lives in bufKeys at thrRow.
			if keyColsCompare(t.scratchKeys, int32(i), t.bufKeys, t.thrRow, t.desc) >= 0 {
				continue
			}
		}
		t.candPhys = append(t.candPhys, int32(b.RowIdx(i)))
		t.candLog = append(t.candLog, int32(i))
	}
	if len(t.candPhys) == 0 {
		return
	}
	t.buf.GatherAppend(b, t.candPhys)
	for k := range t.bufKeys {
		t.bufKeys[k].GatherAppend(t.scratchKeys[k], t.candLog)
	}
}

// evalKeys fills scratchKeys with dense logical-indexed key vectors for
// the batch: bulk typed gather for column keys, per-row evaluation for
// computed keys.
func (t *TopN) evalKeys(b *types.Batch) {
	n := b.Len()
	for k := range t.keys {
		v := t.scratchKeys[k]
		v.Reset()
		if c := t.keyCols[k]; c >= 0 {
			src := b.Cols[c]
			switch src.Typ {
			case types.Int64, types.Bool:
				v.AppendInts(src.Ints, src.Nulls, b.Sel)
			case types.Float64:
				v.AppendFloats(src.Floats, src.Nulls, b.Sel)
			case types.String:
				v.AppendStrings(src.Strings, src.Nulls, b.Sel)
			}
			continue
		}
		for i := 0; i < n; i++ {
			v.Append(t.keys[k].E.Eval(b, i))
		}
	}
}

// prune sorts the buffer's permutation, keeps the best n rows in sorted
// order (gathered into the spare buffer, then swapped in), and installs
// the new worst retained row as the admission threshold.
func (t *TopN) prune() {
	total := t.buf.PhysLen()
	t.perm = grow(t.perm, total)
	for i := range t.perm {
		t.perm[i] = int32(i)
	}
	sortPermutation(t.perm, t.bufKeys, t.keys)
	keep := t.n
	if keep > total {
		keep = total
	}
	t.spare.Reset()
	t.spare.GatherAppend(t.buf, t.perm[:keep])
	for k := range t.spareKeys {
		t.spareKeys[k].Reset()
		t.spareKeys[k].GatherAppend(t.bufKeys[k], t.perm[:keep])
	}
	t.buf, t.spare = t.spare, t.buf
	t.bufKeys, t.spareKeys = t.spareKeys, t.bufKeys
	t.thrValid = keep == t.n
	t.thrRow = int32(keep - 1)
}

func (t *TopN) ensureBuffers() {
	if t.buf != nil {
		return
	}
	schema := t.in.Schema()
	t.buf = types.NewBatch(schema, sortOutCap)
	t.spare = types.NewBatch(schema, sortOutCap)
	t.bufKeys = make([]*types.Vector, len(t.keys))
	t.spareKeys = make([]*types.Vector, len(t.keys))
	t.scratchKeys = make([]*types.Vector, len(t.keys))
	for k, sk := range t.keys {
		kt := sk.E.Type(schema)
		t.bufKeys[k] = types.NewVector(kt, sortOutCap)
		t.spareKeys[k] = types.NewVector(kt, sortOutCap)
		t.scratchKeys[k] = types.NewVector(kt, sortOutCap)
	}
}

// Reset implements Operator.
func (t *TopN) Reset() {
	t.in.Reset()
	t.done = false
	t.pos = 0
	t.perm = t.perm[:0]
	t.thrValid = false
	if t.buf != nil {
		t.buf.Reset()
		t.spare.Reset()
		for k := range t.bufKeys {
			t.bufKeys[k].Reset()
			t.spareKeys[k].Reset()
		}
	}
}
