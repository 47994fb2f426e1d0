package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/value"
)

// The CASE strategies evaluate N boolean conjunctions per input row even
// though the conjunctions are disjoint — one row falls in exactly one result
// column. The paper observes the optimizer could map a row to its column in
// O(1) with a hash table. The default horizontal plans do that: one native
// step maps (D1..Dj) to a group and (Dj+1..Dk) to a column index and hands
// the scan to the engine's hash-pivot kernel (engine.Engine.Pivot). The
// literal CASE plans stay selectable (HpctOptions.CaseTerms,
// HaggOptions.CaseTerms) to reproduce the paper's measurements; results are
// identical.

// pivotPlan lays out one native hash pivot: the group key and the pivot
// terms the engine folds. The pivot's output row is the group key followed
// by each term's columns.
type pivotPlan struct {
	group []string
	terms []pivotTerm
	width int // output columns, group key included
}

// pivotTerm is one pivoted aggregate over a column of the source: one
// column per BY combination, or a single column folding every row of the
// group when by is empty.
type pivotTerm struct {
	call   *expr.AggCall
	arg    expr.Expr // unbound; nil folds a 1 per row (count(*))
	by     []string
	combos []combo
}

func newPivotPlan(group []string) *pivotPlan {
	return &pivotPlan{group: group, width: len(group)}
}

// add appends a term and returns the output index of its first column.
func (pv *pivotPlan) add(call *expr.AggCall, arg expr.Expr, by []string, combos []combo) int {
	at := pv.width
	pv.terms = append(pv.terms, pivotTerm{call: call, arg: arg, by: by, combos: combos})
	if len(by) == 0 {
		pv.width++
	} else {
		pv.width += len(combos)
	}
	return at
}

// sumOf adds sum(arg) over the BY combinations (or over the whole group
// when by is empty).
func (pv *pivotPlan) sumOf(arg expr.Expr, by []string, combos []combo) int {
	return pv.add(&expr.AggCall{Fn: expr.AggSum}, arg, by, combos)
}

// addPartial adds the re-aggregation of an aggregate's distributive FV
// partial columns to pv, per BY combination when by is set, and returns
// how column ci of the term reads back: the partial's super-aggregate
// (mergeOpFor), or for avg the summed partial sums over the summed partial
// counts — the from-FV SQL plans' re-aggregation, DEFAULT included.
func (pv *pivotPlan) addPartial(call *expr.AggCall, cols []string, by []string, combos []combo) func(ci int) emitFn {
	if call.Fn == expr.AggAvg {
		s := pv.sumOf(&expr.ColumnRef{Name: cols[0]}, by, combos)
		c := pv.sumOf(&expr.ColumnRef{Name: cols[1]}, by, combos)
		return func(ci int) emitFn { return ratioOf(s+ci, c+ci, call.Default) }
	}
	op, _ := mergeOpFor(call)
	i := pv.add(&expr.AggCall{Fn: op}, &expr.ColumnRef{Name: cols[0]}, by, combos)
	return func(ci int) emitFn { return cellOf(i+ci, call.Default) }
}

// emitFn computes one result column from a pivot output row.
type emitFn func(row []value.Value) (value.Value, error)

// cellOf reads output column i, or the DEFAULT literal when it is NULL.
func cellOf(i int, deflt *expr.Literal) emitFn {
	return func(row []value.Value) (value.Value, error) {
		return orDefault(row[i], deflt), nil
	}
}

// ratioOf divides output column s by output column c (NULL for a zero or
// NULL divisor), or gives the DEFAULT literal when the ratio is NULL.
func ratioOf(s, c int, deflt *expr.Literal) emitFn {
	return func(row []value.Value) (value.Value, error) {
		v, err := value.Div(row[s], row[c])
		return orDefault(v, deflt), err
	}
}

func orDefault(v value.Value, deflt *expr.Literal) value.Value {
	if v.IsNull() && deflt != nil {
		return deflt.Val
	}
	return v
}

// pctOf is Hpct's CASE WHEN sum(A) <> 0 THEN sum(CASE WHEN … THEN A ELSE 0
// END) / sum(A) ELSE NULL END for cell column i and total column t: a
// combination without rows, or with only NULL measures, contributes an
// explicit zero, and a zero or NULL total makes the percentage NULL.
func pctOf(i, t int) emitFn {
	return func(row []value.Value) (value.Value, error) {
		c := row[i]
		if c.IsNull() {
			c = value.NewInt(0)
		}
		return value.Div(c, row[t])
	}
}

// zeroSumOf is sum(CASE WHEN … THEN pct ELSE 0 END) over FV, which holds
// one row per (group, combination): the combination's percentage added to
// the zeros of the group's other rows, or 0 when it has none.
func zeroSumOf(i int) emitFn {
	return func(row []value.Value) (value.Value, error) {
		return engine.MergeCell(expr.AggSum, value.NewInt(0), row[i])
	}
}

// emitHorizontalPivot creates the FH table(s) and fills them with one
// native hash pivot over source, partitioning exactly as
// emitHorizontalInserts does. Every value and extra column carries its
// emit function. It returns which table holds each value/extra column.
func (p *Planner) emitHorizontalPivot(plan *Plan, a *analysis, source string, where expr.Expr, pv *pivotPlan,
	groupNames []string, vals, extraVals []hvalue, purpose string) map[string]string {

	parts, holder := p.layoutFH(plan, groupNames, vals, extraVals)
	for _, part := range parts {
		plan.Steps = append(plan.Steps, createFH(part, a, groupNames))
	}
	if len(parts) > 1 {
		purpose = fmt.Sprintf("%s (%d partitions)", purpose, len(parts))
	}
	plan.Steps = append(plan.Steps, pivotStep(purpose, source, where, pv, parts))
	return holder
}

// pivotStep is the native step that runs pv over source and writes each
// group's row — the group key, then every column of the part — into each
// part's table.
func pivotStep(purpose, source string, where expr.Expr, pv *pivotPlan, parts []fhPart) Step {
	return Step{
		Purpose: purpose,
		native: func(ctx context.Context, eng *engine.Engine, parallelism int, span *obs.Span) error {
			return runPivot(ctx, eng, source, where, pv, parts, parallelism, span)
		},
	}
}

// runPivot hash-pivots source into the parts' tables: the engine's pivot
// kernel folds each row into its (group, column) cells on the partitioned
// fold driver, under the step's context, limits and parallelism, and this
// step computes and writes each group's result columns. span receives the
// fold's spans (a sequential "pivot fold", or a concurrent partition
// fan-out with one child per worker plus a merge), then the emit span.
func runPivot(ctx context.Context, eng *engine.Engine, source string, where expr.Expr,
	pv *pivotPlan, parts []fhPart, parallelism int, span *obs.Span) error {

	src, err := eng.ResolveTable(source)
	if err != nil {
		return err
	}
	schema := src.Schema()
	resolver := expr.SchemaResolver(schema.Names())
	spec := engine.PivotSpec{Table: src, Terms: make([]engine.PivotTerm, len(pv.terms))}
	for _, g := range pv.group {
		spec.Group = append(spec.Group, schema.ColumnIndex(g))
	}
	for ti, t := range pv.terms {
		st := &spec.Terms[ti]
		st.Call = t.call
		if t.arg != nil {
			if st.Arg, err = expr.Bind(t.arg, resolver); err != nil {
				return err
			}
		}
		if len(t.by) == 0 {
			continue
		}
		for _, b := range t.by {
			st.By = append(st.By, schema.ColumnIndex(b))
		}
		st.Columns = make(map[string]int, len(t.combos))
		for i, c := range t.combos {
			st.Columns[value.EncodeKeyString(c.vals...)] = i
		}
	}
	if where != nil {
		if spec.Where, err = expr.Bind(where, resolver); err != nil {
			return err
		}
	}
	groups, err := eng.Pivot(ctx, spec, parallelism, span)
	if err != nil {
		return err
	}

	tables := make([]string, len(parts))
	for i, part := range parts {
		tables[i] = part.table
	}
	es := span.NewChild("emit " + strings.Join(tables, ", "))
	fail := func(err error) error {
		es.Attr("error", err.Error())
		es.End()
		return err
	}
	ng := len(pv.group)
	out := make([]value.Value, 0, pv.width)
	for _, part := range parts {
		dst, err := eng.Catalog().Get(part.table)
		if err != nil {
			return fail(err)
		}
		for gi, g := range groups {
			if gi > 0 && gi%nativeStride == 0 {
				if err := engine.CheckCtx(ctx); err != nil {
					return fail(err)
				}
			}
			out = append(out[:0], g[:ng]...)
			for _, c := range part.cols {
				v, err := c.emit(g)
				if err != nil {
					return fail(err)
				}
				out = append(out, v)
			}
			if _, err := dst.AppendRow(out); err != nil {
				return fail(err)
			}
		}
	}
	es.End()
	es.SetRows(int64(len(groups)), int64(len(groups)*len(parts)))
	return nil
}
