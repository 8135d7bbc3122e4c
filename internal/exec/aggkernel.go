package exec

import (
	"fmt"

	"repro/internal/types"
)

// This file holds the aggregation kernels: tight loops over packed
// column arrays. Each kernel consumes a whole vector honoring the
// batch's selection vector and the column's null mask, with a dense
// null-free fast path. Dictionary-coded and boolean columns flow through
// the int64 kernels unchanged (their exec-layer representation is the
// Ints array), so the same kernels serve value-domain and code-domain
// aggregation.

// typedAggState is the unboxed accumulator for one (group, aggregate)
// pair. Int, float and string fields coexist so one layout serves every
// column type; the consumer knows statically which part is live.
type typedAggState struct {
	count      int64
	sumI       int64
	sumF       float64
	minI, maxI int64
	minF, maxF float64
	minS, maxS string
	seen       bool
}

// aggKind selects the kernel family for one aggregate spec.
type aggKind uint8

const (
	aggKindCountStar aggKind = iota
	aggKindCount
	aggKindSumInt
	aggKindSumFloat
	aggKindMinMaxInt
	aggKindMinMaxFloat
	aggKindMinMaxString
)

// typedAggSpec is one aggregate compiled onto its kernel family.
type typedAggSpec struct {
	kind    aggKind
	col     int // input column (unused for COUNT(*))
	argType types.Type
}

// compileTypedAggs maps the aggregate specs onto kernels by argument
// column type. SUM and AVG over a string column have no meaning; the
// SQL planner rejects them, so reaching one here is a caller bug.
func compileTypedAggs(inS *types.Schema, aggs []AggSpec) []typedAggSpec {
	out := make([]typedAggSpec, len(aggs))
	for i, a := range aggs {
		if a.Func == AggCountStar {
			out[i] = typedAggSpec{kind: aggKindCountStar, argType: types.Int64}
			continue
		}
		ct := inS.Cols[a.Col].Type
		sp := typedAggSpec{col: a.Col, argType: ct}
		switch a.Func {
		case AggCount:
			sp.kind = aggKindCount
		case AggSum, AggAvg:
			switch ct {
			case types.Float64:
				sp.kind = aggKindSumFloat
			case types.String:
				panic(fmt.Sprintf("exec: %s over a %s column", a.Func, ct))
			default:
				sp.kind = aggKindSumInt
			}
		case AggMin, AggMax:
			switch ct {
			case types.Float64:
				sp.kind = aggKindMinMaxFloat
			case types.String:
				sp.kind = aggKindMinMaxString
			default:
				sp.kind = aggKindMinMaxInt
			}
		}
		out[i] = sp
	}
	return out
}

// runTypedKernel dispatches one aggregate kernel over a batch (global
// aggregation).
func runTypedKernel(sp typedAggSpec, b *types.Batch, st *typedAggState) {
	switch sp.kind {
	case aggKindCountStar:
		st.count += int64(b.Len())
	case aggKindCount:
		countKernel(b.Cols[sp.col], b.Sel, b.Len(), st)
	case aggKindSumInt:
		sumIntKernel(b.Cols[sp.col], b.Sel, st)
	case aggKindSumFloat:
		sumFloatKernel(b.Cols[sp.col], b.Sel, st)
	case aggKindMinMaxInt:
		minMaxIntKernel(b.Cols[sp.col], b.Sel, st)
	case aggKindMinMaxFloat:
		minMaxFloatKernel(b.Cols[sp.col], b.Sel, st)
	case aggKindMinMaxString:
		minMaxStringKernel(b.Cols[sp.col], b.Sel, st)
	}
}

// runTypedGroupedKernel dispatches one aggregate kernel over a batch
// with per-row group ids.
func runTypedGroupedKernel(sp typedAggSpec, b *types.Batch, gids []int32, states []typedAggState, stride, off int) {
	switch sp.kind {
	case aggKindCountStar:
		countStarGrouped(gids, states, stride, off)
	case aggKindCount:
		countGrouped(b.Cols[sp.col], b.Sel, gids, states, stride, off)
	case aggKindSumInt:
		sumIntGrouped(b.Cols[sp.col], b.Sel, gids, states, stride, off)
	case aggKindSumFloat:
		sumFloatGrouped(b.Cols[sp.col], b.Sel, gids, states, stride, off)
	case aggKindMinMaxInt:
		minMaxIntGrouped(b.Cols[sp.col], b.Sel, gids, states, stride, off)
	case aggKindMinMaxFloat:
		minMaxFloatGrouped(b.Cols[sp.col], b.Sel, gids, states, stride, off)
	case aggKindMinMaxString:
		minMaxStringGrouped(b.Cols[sp.col], b.Sel, gids, states, stride, off)
	}
}

// result converts the accumulated state into the aggregate's output
// value. An aggregate over no non-NULL input is NULL (COUNT is 0).
func (st *typedAggState) result(f AggFunc, argType types.Type) types.Value {
	isF := argType == types.Float64
	switch f {
	case AggCount, AggCountStar:
		return types.NewInt(st.count)
	case AggSum:
		if st.count == 0 {
			return types.NewNull(argType)
		}
		if isF {
			return types.NewFloat(st.sumF)
		}
		return types.NewInt(st.sumI)
	case AggMin, AggMax:
		if !st.seen {
			return types.NewNull(argType)
		}
		i, fl, s := st.minI, st.minF, st.minS
		if f == AggMax {
			i, fl, s = st.maxI, st.maxF, st.maxS
		}
		switch argType {
		case types.Float64:
			return types.NewFloat(fl)
		case types.String:
			return types.NewString(s)
		case types.Bool:
			return types.NewBool(i != 0)
		default:
			return types.NewInt(i)
		}
	case AggAvg:
		if st.count == 0 {
			return types.NewNull(types.Float64)
		}
		if isF {
			return types.NewFloat(st.sumF / float64(st.count))
		}
		return types.NewFloat(float64(st.sumI) / float64(st.count))
	default:
		return types.NewNull(argType)
	}
}

// merge folds another partial state into st. The layout is kind-blind:
// count/sum fields are additive and min/max fold through seen, so one
// merge serves every kernel family (the fields a family never writes
// stay zero and merge harmlessly).
func (st *typedAggState) merge(o *typedAggState) {
	st.count += o.count
	st.sumI += o.sumI
	st.sumF += o.sumF
	if !o.seen {
		return
	}
	if !st.seen {
		st.minI, st.maxI = o.minI, o.maxI
		st.minF, st.maxF = o.minF, o.maxF
		st.minS, st.maxS = o.minS, o.maxS
		st.seen = true
		return
	}
	st.minI, st.maxI = min(st.minI, o.minI), max(st.maxI, o.maxI)
	st.minS, st.maxS = min(st.minS, o.minS), max(st.maxS, o.maxS)
	// Not the min/max builtins: they propagate NaN, the kernels' `<`
	// comparisons do not.
	if o.minF < st.minF {
		st.minF = o.minF
	}
	if o.maxF > st.maxF {
		st.maxF = o.maxF
	}
}

// sumIntKernel accumulates COUNT and SUM over an int64 (or bool or
// dict-code) vector.
func sumIntKernel(vec *types.Vector, sel []int, st *typedAggState) {
	vals := vec.Ints
	var sum int64
	if !vec.HasNulls() {
		if sel == nil {
			for _, v := range vals {
				sum += v
			}
			st.sumI += sum
			st.count += int64(len(vals))
			return
		}
		for _, i := range sel {
			sum += vals[i]
		}
		st.sumI += sum
		st.count += int64(len(sel))
		return
	}
	if sel == nil {
		for i, v := range vals {
			if vec.IsNull(i) {
				continue
			}
			sum += v
			st.count++
		}
		st.sumI += sum
		return
	}
	for _, i := range sel {
		if vec.IsNull(i) {
			continue
		}
		sum += vals[i]
		st.count++
	}
	st.sumI += sum
}

// minMaxIntKernel accumulates COUNT, MIN, and MAX over an int64 vector.
func minMaxIntKernel(vec *types.Vector, sel []int, st *typedAggState) {
	vals := vec.Ints
	observe := func(v int64) {
		if !st.seen {
			st.minI, st.maxI = v, v
			st.seen = true
			return
		}
		if v < st.minI {
			st.minI = v
		}
		if v > st.maxI {
			st.maxI = v
		}
	}
	if !vec.HasNulls() {
		if sel == nil {
			for _, v := range vals {
				observe(v)
			}
			st.count += int64(len(vals))
			return
		}
		for _, i := range sel {
			observe(vals[i])
		}
		st.count += int64(len(sel))
		return
	}
	if sel == nil {
		for i, v := range vals {
			if vec.IsNull(i) {
				continue
			}
			observe(v)
			st.count++
		}
		return
	}
	for _, i := range sel {
		if vec.IsNull(i) {
			continue
		}
		observe(vals[i])
		st.count++
	}
}

// sumFloatKernel accumulates COUNT and SUM over a float64 vector. The
// sum folds into the state value-by-value (no batch-local partial) so
// the result is independent of how rows are batched — a query must
// produce bit-identical sums before and after a delta merge.
func sumFloatKernel(vec *types.Vector, sel []int, st *typedAggState) {
	vals := vec.Floats
	if !vec.HasNulls() {
		if sel == nil {
			for _, v := range vals {
				st.sumF += v
			}
			st.count += int64(len(vals))
			return
		}
		for _, i := range sel {
			st.sumF += vals[i]
		}
		st.count += int64(len(sel))
		return
	}
	if sel == nil {
		for i, v := range vals {
			if vec.IsNull(i) {
				continue
			}
			st.sumF += v
			st.count++
		}
		return
	}
	for _, i := range sel {
		if vec.IsNull(i) {
			continue
		}
		st.sumF += vals[i]
		st.count++
	}
}

// minMaxFloatKernel accumulates COUNT, MIN, and MAX over a float64
// vector.
func minMaxFloatKernel(vec *types.Vector, sel []int, st *typedAggState) {
	vals := vec.Floats
	observe := func(v float64) {
		if !st.seen {
			st.minF, st.maxF = v, v
			st.seen = true
			return
		}
		if v < st.minF {
			st.minF = v
		}
		if v > st.maxF {
			st.maxF = v
		}
	}
	if !vec.HasNulls() {
		if sel == nil {
			for _, v := range vals {
				observe(v)
			}
			st.count += int64(len(vals))
			return
		}
		for _, i := range sel {
			observe(vals[i])
		}
		st.count += int64(len(sel))
		return
	}
	if sel == nil {
		for i, v := range vals {
			if vec.IsNull(i) {
				continue
			}
			observe(v)
			st.count++
		}
		return
	}
	for _, i := range sel {
		if vec.IsNull(i) {
			continue
		}
		observe(vals[i])
		st.count++
	}
}

// minMaxStringKernel accumulates COUNT, MIN, and MAX over a string
// vector.
func minMaxStringKernel(vec *types.Vector, sel []int, st *typedAggState) {
	n := len(vec.Strings)
	if sel != nil {
		n = len(sel)
	}
	for r := 0; r < n; r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if !vec.IsNull(i) {
			observeString(st, vec.Strings[i])
		}
	}
}

func observeString(st *typedAggState, v string) {
	st.count++
	if !st.seen {
		st.minS, st.maxS = v, v
		st.seen = true
		return
	}
	if v < st.minS {
		st.minS = v
	}
	if v > st.maxS {
		st.maxS = v
	}
}

// countKernel counts non-null positions (COUNT(col)).
func countKernel(vec *types.Vector, sel []int, n int, st *typedAggState) {
	if !vec.HasNulls() {
		st.count += int64(n)
		return
	}
	if sel == nil {
		st.count += int64(n - vec.Nulls.CountNulls())
		return
	}
	for _, i := range sel {
		if !vec.IsNull(i) {
			st.count++
		}
	}
}

// ---------------------------------------------------------------------
// Grouped variants: one state per (group, aggregate). gids[r] names the
// group of logical row r; states is laid out [gid*stride+off].
// ---------------------------------------------------------------------

func sumIntGrouped(vec *types.Vector, sel []int, gids []int32, states []typedAggState, stride, off int) {
	vals := vec.Ints
	if !vec.HasNulls() {
		if sel == nil {
			for r, v := range vals {
				st := &states[int(gids[r])*stride+off]
				st.sumI += v
				st.count++
			}
			return
		}
		for r, i := range sel {
			st := &states[int(gids[r])*stride+off]
			st.sumI += vals[i]
			st.count++
		}
		return
	}
	for r := 0; r < len(gids); r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if vec.IsNull(i) {
			continue
		}
		st := &states[int(gids[r])*stride+off]
		st.sumI += vals[i]
		st.count++
	}
}

func minMaxIntGrouped(vec *types.Vector, sel []int, gids []int32, states []typedAggState, stride, off int) {
	vals := vec.Ints
	for r := 0; r < len(gids); r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if vec.IsNull(i) {
			continue
		}
		v := vals[i]
		st := &states[int(gids[r])*stride+off]
		if !st.seen {
			st.minI, st.maxI = v, v
			st.seen = true
		} else {
			if v < st.minI {
				st.minI = v
			}
			if v > st.maxI {
				st.maxI = v
			}
		}
		st.count++
	}
}

func sumFloatGrouped(vec *types.Vector, sel []int, gids []int32, states []typedAggState, stride, off int) {
	vals := vec.Floats
	if !vec.HasNulls() {
		if sel == nil {
			for r, v := range vals {
				st := &states[int(gids[r])*stride+off]
				st.sumF += v
				st.count++
			}
			return
		}
		for r, i := range sel {
			st := &states[int(gids[r])*stride+off]
			st.sumF += vals[i]
			st.count++
		}
		return
	}
	for r := 0; r < len(gids); r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if vec.IsNull(i) {
			continue
		}
		st := &states[int(gids[r])*stride+off]
		st.sumF += vals[i]
		st.count++
	}
}

func minMaxFloatGrouped(vec *types.Vector, sel []int, gids []int32, states []typedAggState, stride, off int) {
	vals := vec.Floats
	for r := 0; r < len(gids); r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if vec.IsNull(i) {
			continue
		}
		v := vals[i]
		st := &states[int(gids[r])*stride+off]
		if !st.seen {
			st.minF, st.maxF = v, v
			st.seen = true
		} else {
			if v < st.minF {
				st.minF = v
			}
			if v > st.maxF {
				st.maxF = v
			}
		}
		st.count++
	}
}

func minMaxStringGrouped(vec *types.Vector, sel []int, gids []int32, states []typedAggState, stride, off int) {
	for r := 0; r < len(gids); r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if !vec.IsNull(i) {
			observeString(&states[int(gids[r])*stride+off], vec.Strings[i])
		}
	}
}

func countGrouped(vec *types.Vector, sel []int, gids []int32, states []typedAggState, stride, off int) {
	for r := 0; r < len(gids); r++ {
		i := r
		if sel != nil {
			i = sel[r]
		}
		if vec != nil && vec.IsNull(i) {
			continue
		}
		states[int(gids[r])*stride+off].count++
	}
}

// countStarGrouped counts every row of its group, nulls included.
func countStarGrouped(gids []int32, states []typedAggState, stride, off int) {
	for _, g := range gids {
		states[int(g)*stride+off].count++
	}
}
