package exec

import (
	"repro/internal/types"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggCountStar
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String names the function.
func (f AggFunc) String() string {
	switch f {
	case AggCount, AggCountStar:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return "?"
	}
}

// AggSpec is one aggregate output column over one input column.
type AggSpec struct {
	Func AggFunc
	Col  int // input column; ignored by COUNT(*)
	Name string
}

// HashAggregate groups rows by key columns and computes aggregates over
// argument columns. Output schema: group columns then aggregate
// columns. Keys and arguments are column references only: the planner
// projects computed ones into columns below the aggregate, so they are
// evaluated on the morsel workers and every aggregation runs through
// one typed path — keys hashed and compared over raw column vectors in
// the shared keyTable (NULL is an ordinary group), arguments folded by
// the whole-vector kernels in aggkernel.go. No types.Value is boxed per
// input row.
type HashAggregate struct {
	in        Operator
	groupCols []int
	aggs      []AggSpec
	plan      []typedAggSpec
	doms      []keyDomain
	storeCols []int         // 0..len(groupCols)-1: the key columns of a store
	keySchema *types.Schema // the group columns of schema
	schema    *types.Schema

	done bool
}

// NewHashAggregate builds an aggregation over in's columns groupCols;
// groupNames label the group columns (the input column name when
// empty). SUM and AVG take numeric or boolean columns only; the SQL
// planner rejects any other argument before it gets here.
func NewHashAggregate(in Operator, groupCols []int, groupNames []string, aggs []AggSpec) *HashAggregate {
	inS := in.Schema()
	cols := make([]types.Column, 0, len(groupCols)+len(aggs))
	doms := make([]keyDomain, len(groupCols))
	storeCols := make([]int, len(groupCols))
	for i, c := range groupCols {
		name := inS.Cols[c].Name
		if i < len(groupNames) && groupNames[i] != "" {
			name = groupNames[i]
		}
		cols = append(cols, types.Column{Name: name, Type: inS.Cols[c].Type})
		doms[i] = keyDomainOf(inS.Cols[c].Type)
		storeCols[i] = i
	}
	for _, a := range aggs {
		t := types.Int64
		switch a.Func {
		case AggAvg:
			t = types.Float64
		case AggSum, AggMin, AggMax:
			t = inS.Cols[a.Col].Type
		}
		name := a.Name
		if name == "" {
			if a.Func == AggCountStar {
				name = "COUNT(*)"
			} else {
				name = a.Func.String() + "(" + inS.Cols[a.Col].Name + ")"
			}
		}
		cols = append(cols, types.Column{Name: name, Type: t})
	}
	return &HashAggregate{
		in: in, groupCols: groupCols, aggs: aggs,
		plan:      compileTypedAggs(inS, aggs),
		doms:      doms,
		storeCols: storeCols,
		keySchema: &types.Schema{Cols: cols[:len(groupCols):len(groupCols)]},
		schema:    &types.Schema{Cols: cols},
	}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() *types.Schema { return h.schema }

// Next implements Operator: it drains the input on first call and emits
// one batch of results. Each drain worker (one for a serial input, one
// per morsel worker for a parallel Pipeline) folds its batches into a
// private accumulator; the accumulators merge once here at the breaker.
// The first worker's accumulator seeds the merge so its groups are not
// re-inserted. Group output order is first-seen across the merge, which
// for a parallel drain depends on how zones were dealt to workers —
// unordered, as SQL allows. Float sums merge in worker order, so a
// parallel drain can differ from a serial one in the last ULPs.
func (h *HashAggregate) Next() (*types.Batch, error) {
	if h.done {
		return nil, nil
	}
	h.done = true
	accs := make([]*aggAcc, drainWidth(h.in))
	err := drain(h.in, func(w int, b *types.Batch) error {
		a := accs[w]
		if a == nil {
			a = h.newAcc()
			accs[w] = a
		}
		a.consume(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var merged *aggAcc
	for _, a := range accs {
		switch {
		case a == nil:
		case merged == nil:
			merged = a
		default:
			merged.mergeFrom(a)
		}
	}
	if merged == nil {
		merged = h.newAcc()
	}
	return h.emit(merged), nil
}

// Reset implements Operator.
func (h *HashAggregate) Reset() {
	h.in.Reset()
	h.done = false
}

// aggAcc is one drain worker's aggregation state: the per-(group,
// aggregate) states laid out [gid*len(plan)+ai], and for grouped
// aggregation the key table, the key store (one row per group, in gid
// order — the equality side of the table's collision re-check and,
// at emit, the output key columns) and the per-batch scratch. eq is
// stored once so the per-row table probes pass a func value, not a
// fresh closure.
type aggAcc struct {
	h      *HashAggregate
	states []typedAggState

	table   *keyTable
	store   *types.Batch
	curKeys []*types.Vector // key projection of the batch being grouped
	curPhys int32           // physical row of the current probe (read by eq)
	hashes  []uint64
	gids    []int32
	rowBuf  [1]int32
	eq      func(probe, repr int32) bool
}

func (h *HashAggregate) newAcc() *aggAcc {
	a := &aggAcc{h: h}
	if len(h.groupCols) == 0 {
		// Global aggregation: one implicit group, present even over an
		// empty input.
		a.states = make([]typedAggState, len(h.plan))
		return a
	}
	a.table = newKeyTable(64)
	a.store = types.NewBatch(h.keySchema, 64)
	if len(h.doms) == 1 && h.doms[0] == keyInt {
		// The common single-integer key compares inline, without the
		// per-column domain dispatch.
		sv := a.store.Cols[0]
		a.eq = func(_, repr int32) bool {
			p, r := int(a.curPhys), int(repr)
			kv := a.curKeys[0]
			if pn, rn := kv.IsNull(p), sv.IsNull(r); pn || rn {
				return pn && rn
			}
			return kv.Ints[p] == sv.Ints[r]
		}
	} else {
		a.eq = func(_, repr int32) bool {
			return keyColsEqual(a.curKeys, int(a.curPhys), a.store.Cols, int(repr), h.doms, true)
		}
	}
	return a
}

// consume folds one batch into the accumulator: flat kernels for global
// aggregation; otherwise group-id assignment then one grouped kernel
// pass per aggregate.
func (a *aggAcc) consume(b *types.Batch) {
	plan := a.h.plan
	if a.table == nil {
		for ai := range plan {
			runTypedKernel(plan[ai], b, &a.states[ai])
		}
		return
	}
	n := b.Len()
	a.hashKeys(b, a.h.groupCols, n)
	a.gids = grow(a.gids, n)
	for i := 0; i < n; i++ {
		a.gids[i] = a.group(i, int32(b.RowIdx(i)))
	}
	for ai := range plan {
		runTypedGroupedKernel(plan[ai], b, a.gids, a.states, len(plan), ai)
	}
}

// hashKeys hashes the key columns cols of b's n logical rows into
// a.hashes and points a.curKeys at them. NULL keys hash as a value of
// their own (hasNull is not needed: NULL groups like any key).
func (a *aggAcc) hashKeys(b *types.Batch, cols []int, n int) {
	a.hashes = grow(a.hashes, n)
	hashKeyCols(b, cols, a.h.doms, &a.curKeys, a.hashes, nil)
}

// group returns the group id of logical row i (physical row phys) of
// the batch whose keys hashKeys last projected, adding the group on
// first sight. A new group's key is appended to the store immediately,
// so later rows of the same batch resolve against it.
func (a *aggAcc) group(i int, phys int32) int32 {
	a.curPhys = phys
	gid, inserted := a.table.lookupOrInsert(a.hashes[i], int32(a.table.entries()), a.eq)
	if inserted {
		a.rowBuf[0] = phys
		for k, v := range a.curKeys {
			a.store.Cols[k].GatherAppend(v, a.rowBuf[:])
		}
		for range a.h.plan {
			a.states = append(a.states, typedAggState{})
		}
	}
	return gid
}

// mergeFrom folds another accumulator's groups into a: o's key store is
// hashed and probed like an input batch.
func (a *aggAcc) mergeFrom(o *aggAcc) {
	nAggs := len(a.h.plan)
	if a.table == nil {
		for ai := range a.states {
			a.states[ai].merge(&o.states[ai])
		}
		return
	}
	n := o.store.PhysLen()
	a.hashKeys(o.store, a.h.storeCols, n)
	for g := 0; g < n; g++ {
		gid := int(a.group(g, int32(g)))
		dst := a.states[gid*nAggs : (gid+1)*nAggs]
		src := o.states[g*nAggs : (g+1)*nAggs]
		for ai := range dst {
			dst[ai].merge(&src[ai])
		}
	}
}

// emit builds the result batch: the store's key columns as they are,
// then one column per aggregate.
func (h *HashAggregate) emit(a *aggAcc) *types.Batch {
	nGroups, nAggs := 1, len(h.plan)
	out := &types.Batch{Schema: h.schema, Cols: make([]*types.Vector, 0, len(h.schema.Cols))}
	if a.store != nil {
		nGroups = a.store.PhysLen()
		out.Cols = append(out.Cols, a.store.Cols...)
	}
	for ai, sp := range h.plan {
		vec := types.NewVector(h.schema.Cols[len(h.groupCols)+ai].Type, nGroups)
		for g := 0; g < nGroups; g++ {
			vec.Append(a.states[g*nAggs+ai].result(h.aggs[ai].Func, sp.argType))
		}
		out.Cols = append(out.Cols, vec)
	}
	return out
}
