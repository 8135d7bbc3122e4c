package exec

import (
	"fmt"
	"strings"
)

// DescribePlan renders an operator tree one node per line, children
// indented — the introspection hook planner tests assert operator
// selection with (e.g. that ORDER BY + LIMIT compiled to TopN, not
// Sort) and an EXPLAIN-style debugging aid.
func DescribePlan(op Operator) string {
	var sb strings.Builder
	describeInto(&sb, op, 0)
	return sb.String()
}

func describeInto(sb *strings.Builder, op Operator, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	switch v := op.(type) {
	case *Source:
		fmt.Fprintf(sb, "Source(batches=%d)\n", len(v.batches))
	case *CallbackSource:
		sb.WriteString("CallbackSource\n")
	case *Pipeline:
		fmt.Fprintf(sb, "Pipeline(workers=%d stages=%d)\n", v.workers, len(v.stages))
		describeInto(sb, v.serial, depth+1)
	case *Filter:
		fmt.Fprintf(sb, "Filter(%s)\n", v.pred)
		describeInto(sb, v.in, depth+1)
	case *Projection:
		fmt.Fprintf(sb, "Projection(cols=%d)\n", len(v.exprs))
		describeInto(sb, v.in, depth+1)
	case *Limit:
		fmt.Fprintf(sb, "Limit(limit=%d offset=%d)\n", v.limit, v.offset)
		describeInto(sb, v.in, depth+1)
	case *Sort:
		fmt.Fprintf(sb, "Sort(keys=%d)\n", len(v.keys))
		describeInto(sb, v.in, depth+1)
	case *TopN:
		fmt.Fprintf(sb, "TopN(n=%d keys=%d)\n", v.n, len(v.keys))
		describeInto(sb, v.in, depth+1)
	case *Distinct:
		sb.WriteString("Distinct\n")
		describeInto(sb, v.in, depth+1)
	case *HashAggregate:
		fmt.Fprintf(sb, "HashAggregate(groups=%d aggs=%d)\n", len(v.groupCols), len(v.aggs))
		describeInto(sb, v.in, depth+1)
	case *HashJoin:
		kind := "inner"
		if v.kind == LeftJoin {
			kind = "left"
		}
		if v.Note != "" {
			fmt.Fprintf(sb, "HashJoin(%s keys=%d %s)\n", kind, len(v.leftKeys), v.Note)
		} else {
			fmt.Fprintf(sb, "HashJoin(%s keys=%d)\n", kind, len(v.leftKeys))
		}
		describeInto(sb, v.left, depth+1)
		describeInto(sb, v.right, depth+1)
	default:
		if d, ok := op.(PlanDescriber); ok {
			sb.WriteString(d.DescribePlan())
			sb.WriteString("\n")
			return
		}
		fmt.Fprintf(sb, "%T\n", op)
	}
}

// PlanDescriber lets operators defined outside this package (the
// engine's TableScan leaf, notably) render themselves in DescribePlan
// instead of falling back to their type name.
type PlanDescriber interface {
	DescribePlan() string
}
