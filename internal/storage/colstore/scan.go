package colstore

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/types"
)

// Op is a comparison operator for pushed-down predicates.
type Op uint8

// Predicate operators. OpIsNull/OpIsNotNull test nullness and ignore
// the predicate value entirely.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpIsNull
	OpIsNotNull
)

// String names the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpIsNull:
		return "IS NULL"
	case OpIsNotNull:
		return "IS NOT NULL"
	default:
		return "?"
	}
}

// Predicate is a single-column comparison pushed into the scan. A scan
// evaluates the conjunction of its predicates. For OpIsNull and
// OpIsNotNull, Val is ignored.
type Predicate struct {
	Col int
	Op  Op
	Val types.Value
}

// Matches evaluates the predicate against a value (NULL never matches
// a comparison; the null tests match on nullness alone).
func (p Predicate) Matches(v types.Value) bool {
	switch p.Op {
	case OpIsNull:
		return v.Null
	case OpIsNotNull:
		return !v.Null
	}
	if v.Null || p.Val.Null {
		return false
	}
	c := types.Compare(v, p.Val)
	return opMatchesCmp(p.Op, c)
}

// opMatchesCmp folds a three-way comparison result through a comparison
// operator.
func opMatchesCmp(op Op, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// zoneCanMatch reports whether a zone summary could contain a row
// matching p. This is the prune test applied per zone AND — via the
// folded segment summary — per segment, before any morsel is dealt
// (the paper's "storage index"/"synopsis" skip). All-null ranges are
// detected by NullCount == Rows, never by a sentinel min/max.
func zoneCanMatch(p Predicate, z Zone) bool {
	switch p.Op {
	case OpIsNull:
		return z.NullCount > 0
	case OpIsNotNull:
		return z.NullCount < z.Rows
	}
	if p.Val.Null {
		return false
	}
	if z.AllNull() {
		return false // no non-null value: no comparison can match
	}
	cMin := types.Compare(z.Min, p.Val)
	cMax := types.Compare(z.Max, p.Val)
	switch p.Op {
	case OpEq:
		return cMin <= 0 && cMax >= 0
	case OpNe:
		return !(cMin == 0 && cMax == 0)
	case OpLt:
		return cMin < 0
	case OpLe:
		return cMin <= 0
	case OpGt:
		return cMax > 0
	case OpGe:
		return cMax >= 0
	default:
		return true
	}
}

// canMatch reports whether any row of the segment could satisfy the
// conjunction of preds, consulting the per-segment zone summaries and,
// for dictionary-encoded columns, dictionary membership: an equality
// literal absent from the dictionary excludes every row of the segment
// even when it falls inside [min, max].
func (s *Segment) canMatch(preds []Predicate) bool {
	for _, p := range preds {
		if !zoneCanMatch(p, s.summary[p.Col]) {
			return false
		}
		if p.Op != OpEq || p.Val.Null {
			continue
		}
		switch c := s.cols[p.Col].(type) {
		case *stringColumn:
			if p.Val.Typ == types.String {
				if _, ok := c.dict.Code(p.Val.S); !ok {
					return false
				}
			}
		case *intDictColumn:
			if p.Val.Typ == types.Int64 {
				if _, ok := c.dict.Code(p.Val.I); !ok {
					return false
				}
			}
		}
	}
	return true
}

// IsDone reports (without blocking) whether the cancellation channel is
// closed; a nil channel never cancels. Scan drivers poll it between
// zones/batches.
func IsDone(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// ScanStats reports the pruning behaviour of one scan.
//
// RowsDecoded counts column VALUES decoded or gathered from encoded
// storage: filter columns decode once per surviving selection position,
// projected columns only for rows that passed every predicate — so on a
// selective scan RowsDecoded ≪ RowsScanned × columns, which is the
// late-materialization win made observable.
type ScanStats struct {
	SegmentsTotal  int
	SegmentsPruned int
	ZonesTotal     int
	ZonesPruned    int
	RowsScanned    int
	RowsMatched    int
	RowsConcealed  int
	RowsDecoded    int
}

// merge folds o into s (SegmentsTotal and ZonesTotal are set by the
// scan driver, not accumulated per zone range).
func (s *ScanStats) merge(o ScanStats) {
	s.SegmentsPruned += o.SegmentsPruned
	s.ZonesPruned += o.ZonesPruned
	s.RowsScanned += o.RowsScanned
	s.RowsMatched += o.RowsMatched
	s.RowsConcealed += o.RowsConcealed
	s.RowsDecoded += o.RowsDecoded
}

// Add accumulates o into s including the driver-owned totals — the
// cross-scan aggregation the engine's per-table counters use.
func (s *ScanStats) Add(o ScanStats) {
	s.SegmentsTotal += o.SegmentsTotal
	s.ZonesTotal += o.ZonesTotal
	s.merge(o)
}

// scanScratch holds the reusable buffers of one scanning goroutine:
// the selection vector the predicate kernels narrow, the gather
// buffers zone materialization decodes into, and the projected null
// mask. One scratch serves a whole scan, so steady-state zone
// materialization allocates nothing.
type scanScratch struct {
	sel   []int
	ints  []int64
	codes []uint64
	strs  []string
	nulls *types.NullMask
}

// Scan streams the projection proj of rows matching all predicates and
// visible at (readTS, self) to fn, one batch per surviving zone, and
// returns pruning statistics. It is the morsel-driven scan: zones are
// dealt to up to workers goroutines through an atomic cursor and fn is
// invoked CONCURRENTLY — one call per delivered batch, from the
// goroutine of the worker that produced it, carrying that worker's id
// (0..workers-1). workers <= 1 runs on the calling goroutine as worker
// 0. There is no cross-worker serialization; callers own per-worker
// sinks (thread-local aggregation state, per-worker build stores) or
// lock shared state themselves. Each delivered batch is worker-owned
// and reused: valid only until fn returns, so retainers must Copy it.
// fn returning false stops the whole scan. All workers have exited when
// the call returns.
//
// The scan is filter-then-gather: the per-segment zone map is consulted
// BEFORE any worker is started or morsel dealt (a segment whose
// summaries exclude the predicates costs one map probe, no goroutines,
// and no decoded bytes), then per-zone maps prune, then each predicate
// narrows a selection vector over bulk-decoded filter-column values —
// dictionary predicates compare raw codes and never materialize strings
// — and only rows that survive every predicate have their projected
// columns gathered.
//
// done, when non-nil, cancels the scan: workers check it between zones
// (and before delivering a batch) and exit promptly once it is closed,
// so a cancelled query releases its morsel workers within one zone's
// worth of work. A nil done never cancels.
//
//oadb:allow-ctxscan cancellation is the done channel (hot path avoids ctx plumbing per zone); callers thread ctx.Done() into done
func (s *Segment) Scan(readTS, self uint64, proj []int, preds []Predicate, workers int, done <-chan struct{}, fn func(worker int, b *types.Batch) bool) ScanStats {
	var total ScanStats
	if s.n == 0 {
		return total
	}
	nz := s.NumZones()
	if workers > nz {
		workers = nz
	}
	total.SegmentsTotal = 1
	total.ZonesTotal = nz
	if !s.canMatch(preds) {
		total.SegmentsPruned = 1
		total.ZonesPruned = nz
		return total
	}
	projSchema := s.projSchema(proj)
	var (
		cursor  atomic.Int64
		stopped atomic.Bool
	)
	runWorker := func(w int) ScanStats {
		sc := &scanScratch{sel: make([]int, 0, ZoneSize)}
		// The worker's one batch is sized by its first surviving zone
		// and grows on append, so a point scan over a wide table
		// allocates for its matches, not for a whole zone.
		var batch *types.Batch
		var local ScanStats
		emit := func(sel []int) bool {
			if stopped.Load() || IsDone(done) {
				return false
			}
			if batch == nil {
				batch = types.NewBatch(projSchema, len(sel))
			}
			batch.Reset()
			s.fillBatch(batch, proj, sel, sc, &local)
			if !fn(w, batch) {
				stopped.Store(true)
				return false
			}
			return true
		}
		for !stopped.Load() && !IsDone(done) {
			z := int(cursor.Add(1)) - 1
			if z >= nz {
				break
			}
			if !s.scanZones(z, z+1, readTS, self, preds, sc, &local, emit) {
				break
			}
		}
		return local
	}
	if workers <= 1 {
		total.merge(runWorker(0))
		return total
	}
	var (
		wg      sync.WaitGroup
		statsMu sync.Mutex
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := runWorker(w)
			statsMu.Lock()
			total.merge(local)
			statsMu.Unlock()
		}(w)
	}
	wg.Wait()
	return total
}

// scanZones scans zones [zlo, zhi): zone-map pruning, visibility filter,
// predicate kernels, then emit(sel) with the surviving physical row
// indexes. It returns false when emit stopped the scan. Stats accumulate
// everything except the driver-owned totals.
func (s *Segment) scanZones(zlo, zhi int, readTS, self uint64, preds []Predicate, sc *scanScratch, stats *ScanStats, emit func(sel []int) bool) bool {
	sel := sc.sel
	defer func() { sc.sel = sel[:0] }()
zones:
	for z := zlo; z < zhi; z++ {
		for _, p := range preds {
			if !zoneCanMatch(p, s.zones[p.Col][z]) {
				stats.ZonesPruned++
				continue zones
			}
		}
		lo, hi := z*ZoneSize, (z+1)*ZoneSize
		if hi > s.n {
			hi = s.n
		}
		stats.RowsScanned += hi - lo
		// Visibility filter first (cheap atomic load).
		sel = sel[:0]
		for i := lo; i < hi; i++ {
			if s.RowVisible(i, readTS, self) {
				sel = append(sel, i)
			} else {
				stats.RowsConcealed++
			}
		}
		// Predicate kernels narrow the selection column-at-a-time over
		// bulk-decoded filter columns; projected columns are gathered
		// only for the rows that survive every predicate (emit).
		for _, p := range preds {
			if len(sel) == 0 {
				break
			}
			sel = s.filterSel(p, sel, sc, stats)
		}
		if len(sel) == 0 {
			continue
		}
		stats.RowsMatched += len(sel)
		if !emit(sel) {
			return false
		}
	}
	return true
}

func (s *Segment) projSchema(proj []int) *types.Schema {
	cols := make([]types.Column, len(proj))
	for i, ci := range proj {
		cols[i] = s.schema.Cols[ci]
	}
	return &types.Schema{Cols: cols}
}

// filterSel narrows sel to rows matching p with vectorized typed
// kernels: the filter column is bulk-decoded (or its raw codes
// bulk-gathered — dictionary predicates never materialize values) for
// exactly the positions in sel, then a tight typed loop narrows the
// selection. No types.Value is boxed per row on any typed path.
func (s *Segment) filterSel(p Predicate, sel []int, sc *scanScratch, stats *ScanStats) []int {
	col := s.cols[p.Col]
	nulls := col.nullMask()
	// Null tests need only the mask — no decode at all.
	switch p.Op {
	case OpIsNull:
		out := sel[:0]
		if !nulls.AnyNull() {
			return out
		}
		for _, i := range sel {
			if nulls.IsNull(i) {
				out = append(out, i)
			}
		}
		return out
	case OpIsNotNull:
		if !nulls.AnyNull() {
			return sel
		}
		out := sel[:0]
		for _, i := range sel {
			if !nulls.IsNull(i) {
				out = append(out, i)
			}
		}
		return out
	}
	if p.Val.Null {
		return sel[:0]
	}
	switch c := col.(type) {
	case *intColumn:
		if !p.Val.IsNumeric() {
			return sel[:0]
		}
		sc.ints = c.enc.Gather(sel, sc.ints)
		stats.RowsDecoded += len(sel)
		return filterInts(p, sc.ints, nulls, sel)
	case *intDictColumn:
		if !p.Val.IsNumeric() {
			return sel[:0]
		}
		sc.codes = c.codes.Gather(sel, sc.codes)
		stats.RowsDecoded += len(sel)
		if p.Val.Typ == types.Int64 {
			// Code-domain rewrite: =/<> become a single code test,
			// ranges a half-open code-range test via the sorted
			// dictionary — values are never reconstructed.
			ne := int64(-1)
			if p.Op == OpNe {
				if code, found := c.dict.Code(p.Val.I); found {
					ne = int64(code)
				}
			}
			lo, hi, ok := predCodeRange[int64](c.dict, p.Op, p.Val.I)
			if !ok {
				return sel[:0]
			}
			return filterDictCodes(p.Op, sc.codes, lo, hi, ne, nulls, sel)
		}
		// Non-int numeric literal: decode through the (in-cache)
		// dictionary values array, then the typed int kernel.
		sc.ints = decodeIntCodes(c.dict, sc.codes, sc.ints)
		return filterInts(p, sc.ints, nulls, sel)
	case *floatColumn:
		stats.RowsDecoded += len(sel)
		if !p.Val.IsNumeric() {
			return filterGeneric(p, col, sel)
		}
		f := p.Val.AsFloat()
		out := sel[:0]
		for _, i := range sel {
			if nulls.IsNull(i) {
				continue
			}
			if opMatchesCmp(p.Op, cmpFloat(c.vals[i], f)) {
				out = append(out, i)
			}
		}
		return out
	case *stringColumn:
		if p.Val.Typ != types.String {
			return sel[:0]
		}
		ne := int64(-1)
		if p.Op == OpNe {
			if code, found := c.dict.Code(p.Val.S); found {
				ne = int64(code)
			}
		}
		lo, hi, ok := predCodeRange[string](c.dict, p.Op, p.Val.S)
		if !ok {
			return sel[:0]
		}
		sc.codes = c.codes.Gather(sel, sc.codes)
		stats.RowsDecoded += len(sel)
		return filterDictCodes(p.Op, sc.codes, lo, hi, ne, nulls, sel)
	case *boolColumn:
		sc.codes = c.bits.Gather(sel, sc.codes)
		stats.RowsDecoded += len(sel)
		out := sel[:0]
		for k, i := range sel {
			if nulls.IsNull(i) {
				continue
			}
			if p.Matches(types.NewBool(sc.codes[k] != 0)) {
				out = append(out, i)
			}
		}
		return out
	default:
		stats.RowsDecoded += len(sel)
		return filterGeneric(p, col, sel)
	}
}

// filterGeneric is the per-row fallback for exotic column/literal
// pairings; typed kernels handle every hot combination.
func filterGeneric(p Predicate, col column, sel []int) []int {
	out := sel[:0]
	for _, i := range sel {
		if p.Matches(col.get(i)) {
			out = append(out, i)
		}
	}
	return out
}

// filterInts narrows sel over bulk-decoded int64 values: an integer
// literal compares in the int domain, any other numeric literal through
// exact float comparison — mirroring types.Compare without boxing.
func filterInts(p Predicate, vals []int64, nulls *types.NullMask, sel []int) []int {
	out := sel[:0]
	if p.Val.Typ == types.Int64 {
		v := p.Val.I
		if !nulls.AnyNull() {
			for k, i := range sel {
				if cmpMatch(p.Op, vals[k], v) {
					out = append(out, i)
				}
			}
			return out
		}
		for k, i := range sel {
			if nulls.IsNull(i) {
				continue
			}
			if cmpMatch(p.Op, vals[k], v) {
				out = append(out, i)
			}
		}
		return out
	}
	f := p.Val.AsFloat()
	for k, i := range sel {
		if nulls.IsNull(i) {
			continue
		}
		if opMatchesCmp(p.Op, cmpFloat(float64(vals[k]), f)) {
			out = append(out, i)
		}
	}
	return out
}

// filterDictCodes narrows sel in the code domain over bulk-gathered
// codes. For OpNe, ne is the excluded code, or -1 when the literal is
// absent from the dictionary (every non-null row matches); for every
// other operator rows with lo <= code < hi survive.
func filterDictCodes(op Op, codes []uint64, lo, hi uint64, ne int64, nulls *types.NullMask, sel []int) []int {
	out := sel[:0]
	if op == OpNe {
		for k, i := range sel {
			if nulls.IsNull(i) {
				continue
			}
			if ne < 0 || codes[k] != uint64(ne) {
				out = append(out, i)
			}
		}
		return out
	}
	if !nulls.AnyNull() {
		for k, i := range sel {
			if c := codes[k]; c >= lo && c < hi {
				out = append(out, i)
			}
		}
		return out
	}
	for k, i := range sel {
		if nulls.IsNull(i) {
			continue
		}
		if c := codes[k]; c >= lo && c < hi {
			out = append(out, i)
		}
	}
	return out
}

// decodeIntCodes expands dictionary codes to values through the sorted
// values array (an L1-resident gather, no allocation in steady state).
func decodeIntCodes(dict *compress.IntDictionary, codes []uint64, dst []int64) []int64 {
	if cap(dst) < len(codes) {
		dst = make([]int64, len(codes))
	}
	dst = dst[:len(codes)]
	for k, code := range codes {
		dst[k] = dict.Value(int(code))
	}
	return dst
}

func cmpMatch(op Op, a, b int64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	default:
		return false
	}
}

// cmpFloat mirrors types.Compare's float ordering (NaN sorts below
// every non-NaN value) so kernel results match the boxed path exactly.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case math.IsNaN(a) && !math.IsNaN(b):
		return -1
	case !math.IsNaN(a) && math.IsNaN(b):
		return 1
	default:
		return 0
	}
}

// sortedDict is the order-preserving dictionary surface predCodeRange
// rewrites through: codes sort like values, so value comparisons become
// code-range tests via binary-search bounds.
type sortedDict[T any] interface {
	Size() int
	LowerBound(T) int
	UpperBound(T) int
}

// predCodeRange converts a comparison against an order-preserving
// dictionary into a half-open code range [lo, hi) using the sorted
// dictionary's bounds. For OpNe it returns the full range (the caller
// excludes the matching code). ok is false when no code can match, which
// callers turn into an immediate zone/segment skip.
func predCodeRange[T any](d sortedDict[T], op Op, v T) (lo, hi uint64, ok bool) {
	n := uint64(d.Size())
	switch op {
	case OpEq:
		l := uint64(d.LowerBound(v))
		h := uint64(d.UpperBound(v))
		return l, h, l < h
	case OpNe:
		return 0, n, n > 0
	case OpLt:
		h := uint64(d.LowerBound(v))
		return 0, h, h > 0
	case OpLe:
		h := uint64(d.UpperBound(v))
		return 0, h, h > 0
	case OpGt:
		l := uint64(d.UpperBound(v))
		return l, n, l < n
	case OpGe:
		l := uint64(d.LowerBound(v))
		return l, n, l < n
	default:
		return 0, 0, false
	}
}

// fillBatch materializes the projected survivors of one zone into batch
// using the typed bulk appenders — this runs strictly AFTER every
// predicate, so non-filter columns decode only for surviving rows
// (counted in stats.RowsDecoded).
func (s *Segment) fillBatch(batch *types.Batch, proj []int, sel []int, sc *scanScratch, stats *ScanStats) {
	for bi, ci := range proj {
		fillColumn(batch.Cols[bi], s.cols[ci], sel, sc)
	}
	stats.RowsDecoded += len(sel) * len(proj)
}

// fillColumn gathers the selected rows of src into dst. Int columns
// bulk-decode through the frame-of-reference coder (or the int
// dictionary), floats gather straight from the raw array, and
// strings/bools decode into scratch first — in every case the null bits
// travel as a word-packed mask, not per-row Value boxing.
func fillColumn(dst *types.Vector, src column, sel []int, sc *scanScratch) {
	switch c := src.(type) {
	case *intColumn:
		sc.ints = c.enc.Gather(sel, sc.ints)
		dst.AppendInts(sc.ints, gatherNulls(c.nulls, sel, sc), nil)
	case *intDictColumn:
		sc.codes = c.codes.Gather(sel, sc.codes)
		sc.ints = decodeIntCodes(c.dict, sc.codes, sc.ints)
		dst.AppendInts(sc.ints, gatherNulls(c.nulls, sel, sc), nil)
	case *floatColumn:
		dst.AppendFloats(c.vals, c.nulls, sel)
	case *stringColumn:
		if cap(sc.strs) < len(sel) {
			sc.strs = make([]string, len(sel))
		}
		sc.strs = sc.strs[:len(sel)]
		sc.codes = c.codes.Gather(sel, sc.codes)
		for k, code := range sc.codes {
			if c.nulls.IsNull(sel[k]) {
				sc.strs[k] = ""
				continue
			}
			sc.strs[k] = c.dict.Value(int(code))
		}
		dst.AppendStrings(sc.strs, gatherNulls(c.nulls, sel, sc), nil)
	case *boolColumn:
		sc.codes = c.bits.Gather(sel, sc.codes)
		if cap(sc.ints) < len(sel) {
			sc.ints = make([]int64, len(sel))
		}
		sc.ints = sc.ints[:len(sel)]
		for k, b := range sc.codes {
			sc.ints[k] = int64(b)
		}
		dst.AppendInts(sc.ints, gatherNulls(c.nulls, sel, sc), nil)
	default:
		for _, i := range sel {
			dst.Append(src.get(i))
		}
	}
}

// gatherNulls projects the full-domain mask onto sel, reusing the
// scratch mask; it returns nil when no selected row is null.
func gatherNulls(m *types.NullMask, sel []int, sc *scanScratch) *types.NullMask {
	if !m.AnyNull() {
		return nil
	}
	if sc.nulls == nil {
		sc.nulls = types.NewNullMask(0)
	}
	sc.nulls.Reset()
	any := false
	for _, i := range sel {
		null := m.IsNull(i)
		any = any || null
		sc.nulls.Append(null)
	}
	if !any {
		return nil
	}
	return sc.nulls
}
