package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// The CASE strategies evaluate N boolean conjunctions per input row even
// though the conjunctions are disjoint — one row falls in exactly one result
// column. The paper observes the optimizer could map a row to its column in
// O(1) with a hash table. These native steps implement that proposal: they
// map (D1..Dj) to a group and (Dj+1..Dk) to a column index and hand the scan
// to the engine's hash-pivot kernel (engine.Engine.Pivot). They exist as an
// ablation of the CASE evaluation cost; results are identical to the SQL
// plans.

// planHpctHashPivot finishes a direct Hpct plan with a native pivot step.
func (p *Planner) planHpctHashPivot(plan *Plan, a *analysis, call *expr.AggCall,
	combos []combo, groupNames, valueNames []string, extras []int, extraNames []string) (*Plan, error) {

	if len(extras) > 0 {
		return nil, fmt.Errorf("core: HashPivot does not support extra aggregate terms")
	}
	fh, err := p.emitPivotTable(plan, a, groupNames, valueNames, storage.TypeFloat)
	if err != nil {
		return nil, err
	}
	groupCols := append([]string{}, a.groupCols...)
	where := a.where
	plan.Steps = append(plan.Steps, Step{
		Purpose: "hash-pivot F into FH (one O(1) column lookup per row)",
		native: func(ctx context.Context, eng *engine.Engine, parallelism int, span *obs.Span) error {
			return runPivot(ctx, eng, a.table, fh, groupCols, call, combos, where, true, nil, parallelism, span)
		},
	})
	p.finishHorizontalPlan(plan, a, groupNames, valueNames, nil, singleHolder(fh, valueNames, nil))
	return plan, nil
}

// planHaggHashPivot finishes a direct Hagg plan with a native pivot step.
func (p *Planner) planHaggHashPivot(plan *Plan, a *analysis, call *expr.AggCall,
	combos []combo, groupNames, valueNames []string) (*Plan, error) {

	if call.Distinct {
		return nil, fmt.Errorf("core: HashPivot does not support count(DISTINCT …)")
	}
	fh, err := p.emitPivotTable(plan, a, groupNames, valueNames, aggResultType(call, a.schema))
	if err != nil {
		return nil, err
	}
	groupCols := append([]string{}, a.groupCols...)
	where := a.where
	var deflt *value.Value
	if call.Default != nil {
		v := call.Default.Val
		deflt = &v
	}
	plan.Steps = append(plan.Steps, Step{
		Purpose: "hash-pivot F into FH (one O(1) column lookup per row)",
		native: func(ctx context.Context, eng *engine.Engine, parallelism int, span *obs.Span) error {
			return runPivot(ctx, eng, a.table, fh, groupCols, call, combos, where, false, deflt, parallelism, span)
		},
	})
	p.finishHorizontalPlan(plan, a, groupNames, valueNames, nil, singleHolder(fh, valueNames, nil))
	return plan, nil
}

func singleHolder(table string, valueNames, extraNames []string) map[string]string {
	m := make(map[string]string, len(valueNames)+len(extraNames))
	for _, n := range valueNames {
		m[n] = table
	}
	for _, n := range extraNames {
		m[n] = table
	}
	return m
}

// emitPivotTable creates the FH table for a native pivot.
func (p *Planner) emitPivotTable(plan *Plan, a *analysis, groupNames, valueNames []string,
	valType storage.ColumnType) (string, error) {

	fh := p.temp("fh")
	plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop FH", SQL: "DROP TABLE IF EXISTS " + fh})
	plan.ResultTable = fh
	plan.ResultTables = []string{fh}
	plan.N = len(valueNames)
	var defs []string
	for gi, g := range a.groupCols {
		defs = append(defs, colDef(groupNames[gi], a.schema[a.schema.ColumnIndex(g)].Type))
	}
	for _, v := range valueNames {
		defs = append(defs, colDef(v, valType))
	}
	pkey := ""
	if len(groupNames) > 0 {
		pkey = ", PRIMARY KEY(" + joinIdents(groupNames) + ")"
	}
	plan.Steps = append(plan.Steps, Step{Purpose: "create FH",
		SQL: fmt.Sprintf("CREATE TABLE %s (%s%s)", fh, strings.Join(defs, ", "), pkey)})
	return fh, nil
}

// runPivot hash-pivots F into FH: the engine's pivot kernel folds each
// row into its (group, column) cell on the partitioned fold driver, under
// the step's context, limits and parallelism, and this step writes the
// cells out. In percentage mode each cell is divided by the group total at
// emit time, with NULL for zero or all-NULL totals like the SQL plans.
// span receives the fold's spans (a sequential "pivot fold", or a
// concurrent partition fan-out with one child per worker plus a merge),
// then the emit span that writes FH.
func runPivot(ctx context.Context, eng *engine.Engine, table, fh string, groupCols []string,
	call *expr.AggCall, combos []combo, where expr.Expr, pct bool, deflt *value.Value,
	parallelism int, span *obs.Span) error {

	src, err := eng.Catalog().Get(table)
	if err != nil {
		return err
	}
	dst, err := eng.Catalog().Get(fh)
	if err != nil {
		return err
	}
	schema := src.Schema()
	resolver := expr.SchemaResolver(schema.Names())
	spec := engine.PivotSpec{Table: src, Cell: call, Total: pct, Columns: make(map[string]int, len(combos))}
	if pct {
		// Cells hold the measure sums the emit step divides by the total.
		spec.Cell = &expr.AggCall{Fn: expr.AggSum}
	}
	for _, g := range groupCols {
		spec.Group = append(spec.Group, schema.ColumnIndex(g))
	}
	for _, b := range call.By {
		spec.By = append(spec.By, schema.ColumnIndex(b))
	}
	for i, c := range combos {
		spec.Columns[value.EncodeKeyString(c.vals...)] = i
	}
	if call.Arg != nil {
		if spec.Measure, err = expr.Bind(call.Arg, resolver); err != nil {
			return err
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

	es := span.NewChild("emit " + fh)
	ng := len(groupCols)
	out := make([]value.Value, 0, ng+len(combos))
	for gi, g := range groups {
		if gi > 0 && gi%nativeStride == 0 {
			if err := engine.CheckCtx(ctx); err != nil {
				es.Attr("error", err.Error())
				es.End()
				return err
			}
		}
		out = append(out[:0], g[:ng]...)
		cells := g[ng : ng+len(combos)]
		if pct {
			// sum(CASE … ELSE 0) semantics: a combination without rows, or
			// with only NULL measures, contributes an explicit zero.
			tf, ok := g[len(g)-1].AsFloat()
			for _, c := range cells {
				cf, _ := c.AsFloat()
				if !ok || tf == 0 { // floateq:ok SQL division-by-zero guard: exact zero yields NULL
					out = append(out, value.Null)
				} else {
					out = append(out, value.NewFloat(cf/tf))
				}
			}
		} else {
			for _, c := range cells {
				if c.IsNull() && deflt != nil {
					c = *deflt
				}
				out = append(out, c)
			}
		}
		if _, err := dst.AppendRow(out); err != nil {
			es.Attr("error", err.Error())
			es.End()
			return err
		}
	}
	es.End()
	es.SetRows(int64(len(groups)), int64(len(groups)))
	return nil
}
