package core

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/storage"
)

// vterm is one analyzed Vpct select item.
type vterm struct {
	itemIdx    int
	call       *expr.AggCall
	measure    expr.Expr // the A expression
	totalsCols []string  // D1..Dj (GROUP BY minus BY); empty = all rows
	measureCol string    // Fk column holding sum(A) for this term
	fjTable    string
	outName    string
}

// planVertical generates the Vpct evaluation plan of Section 3.1:
//
//	Fk:  INSERT INTO Fk SELECT D1..Dk, sum(A)… FROM F GROUP BY D1..Dk
//	Fj:  INSERT INTO Fj SELECT D1..Dj, sum(A) FROM {Fk|F} GROUP BY D1..Dj
//	FV:  INSERT … divide Fk by Fj joined on the common subkey,
//	     or UPDATE Fk in place.
//
// With m Vpct terms, m+1 aggregations are computed (one Fk, one Fj per
// term), as the paper prescribes.
func (p *Planner) planVertical(a *analysis, opts VpctOptions) (*Plan, error) {
	plan := &Plan{Class: ClassVertical}

	// Gather terms. Fk measure columns are shared across terms with the
	// same expression — except under the UPDATE variant, where each term
	// overwrites its column with its own percentages and so needs its own.
	type mcol struct{ sql, col string }
	var terms []*vterm
	measureCols := map[string]string{} // measure SQL → Fk column
	var measureOrder []mcol
	var extraAggs []int // item indexes of plain vertical aggregates
	for idx, it := range a.items {
		switch it.kind {
		case itemPct:
			if it.agg.Fn != expr.AggVpct {
				return nil, fmt.Errorf("core: internal: %s in vertical plan", it.agg.Fn)
			}
			mSQL := it.agg.Arg.String()
			col, ok := measureCols[mSQL]
			if !ok || opts.UseUpdate {
				col = fmt.Sprintf("m%d", len(measureOrder)+1)
				measureCols[mSQL] = col
				measureOrder = append(measureOrder, mcol{sql: mSQL, col: col})
			}
			terms = append(terms, &vterm{
				itemIdx:    idx,
				call:       it.agg,
				measure:    it.agg.Arg,
				totalsCols: a.totalsColsOf(it.agg),
				measureCol: col,
			})
		case itemVertAgg:
			extraAggs = append(extraAggs, idx)
		}
	}
	if len(terms) == 0 {
		return nil, fmt.Errorf("core: vertical plan without Vpct terms")
	}
	if opts.MissingRows != MissingNone {
		if len(terms) != 1 {
			return nil, fmt.Errorf("core: missing-row handling supports a single Vpct term")
		}
		if len(extraAggs) > 0 {
			return nil, fmt.Errorf("core: missing-row handling cannot be combined with other aggregate terms")
		}
		if len(terms[0].totalsCols) == 0 {
			return nil, fmt.Errorf("core: missing-row handling requires a BY clause (totals grouping)")
		}
	}

	// Optional pre-processing: insert zero-measure rows into F for missing
	// (D1..Dj) × (Dj+1..Dk) combinations before aggregating.
	if opts.MissingRows == MissingPre {
		if err := p.addMissingPreSteps(plan, a, terms[0]); err != nil {
			return nil, err
		}
	}

	// ---- Fk: the fine aggregate over D1..Dk ----
	fk := p.temp("fk")
	// Shared summaries never cover the UPDATE variant (it mutates Fk), nor
	// virtual relations (their contents change between any two scans, and
	// the DML hook that maintains cached summaries never fires for them).
	shareable := p.shareSummaries && !opts.UseUpdate && !p.Eng.IsVirtualTable(a.table)

	measureType := func(mSQL string) storage.ColumnType {
		for _, t := range terms {
			if t.measure.String() == mSQL {
				if opts.UseUpdate {
					// Percentages overwrite these columns in place.
					return storage.TypeFloat
				}
				return exprType(t.measure, a.schema)
			}
		}
		return storage.TypeFloat
	}

	var fkCols, fkSelect []string
	for _, g := range a.groupCols {
		fkCols = append(fkCols, colDef(g, a.schema[a.schema.ColumnIndex(g)].Type))
		fkSelect = append(fkSelect, quoteIdent(g))
	}
	for _, m := range measureOrder {
		fkCols = append(fkCols, colDef(m.col, measureType(m.sql)))
		fkSelect = append(fkSelect, "sum("+m.sql+")")
	}
	extraCol := map[int]string{}
	for n, idx := range extraAggs {
		call := a.items[idx].agg
		col := fmt.Sprintf("x%d", n+1)
		extraCol[idx] = col
		fkCols = append(fkCols, colDef(col, aggResultType(call, a.schema)))
		fkSelect = append(fkSelect, call.String())
	}
	// The column layout is part of the key: two queries can share the select
	// list yet assign different column names (a measure reused as m1 in one
	// and stored as x1 in the other), and a layout mismatch would make the
	// cached table's columns unresolvable for the second plan. Including the
	// definitions also lets lattice plans (planLattice) share FS with Fk.
	fkKey := fmt.Sprintf("fk|%s|%s|%s|%s|%s", a.table, whereSuffix(a.where),
		joinIdents(a.groupCols), strings.Join(fkSelect, ","), strings.Join(fkCols, ","))
	// Delta metadata makes the cached Fk incrementally maintainable: every
	// aggregate column must be distributive (the measure sums always are;
	// extra terms may not be — avg or DISTINCT keep meta nil, so DML
	// rebuilds instead).
	var fkMeta *deltaMeta
	if shareable {
		merges := make([]expr.AggFn, 0, len(measureOrder)+len(extraAggs))
		for range measureOrder {
			merges = append(merges, expr.AggSum)
		}
		deltable := true
		for _, idx := range extraAggs {
			op, ok := mergeOpFor(a.items[idx].agg)
			if !ok {
				deltable = false
				break
			}
			merges = append(merges, op)
		}
		if deltable {
			fkMeta = &deltaMeta{
				base:    a.table,
				where:   whereSuffix(a.where),
				groupBy: " GROUP BY " + joinIdents(a.groupCols),
				selects: strings.Join(fkSelect, ", "),
				colDefs: strings.Join(fkCols, ", "),
				nGroup:  len(a.groupCols),
				merges:  merges,
			}
		}
	}
	fkMode := cacheOff
	var fkReg *summaryEntry
	if shareable {
		fk, fkMode, fkReg = p.cacheLookup(fkKey, fk, a.table, fkMeta)
	} else {
		plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop Fk", SQL: "DROP TABLE IF EXISTS " + fk})
	}
	switch fkMode {
	case cacheHitClean:
		plan.cacheHits++
		plan.Steps = append(plan.Steps, cacheHitStep("Fk", fk))
	case cacheHitDelta:
		plan.cacheHits++
		plan.Steps = append(plan.Steps, p.cacheDeltaStep(fkReg, fk, "Fk"))
	default:
		if fkMode == cacheMiss {
			plan.cacheRegs = append(plan.cacheRegs, fkReg)
			plan.Steps = append(plan.Steps, p.cacheCaptureStep(fkReg, a.table))
		}
		plan.Steps = append(plan.Steps,
			Step{Purpose: "create Fk", SQL: fmt.Sprintf("CREATE TABLE %s (%s)", fk, strings.Join(fkCols, ", "))},
			Step{Purpose: "compute fine aggregate Fk from F",
				SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s%s GROUP BY %s",
					fk, strings.Join(fkSelect, ", "), a.table, whereSuffix(a.where), joinIdents(a.groupCols))},
		)
		if fkMode == cacheMiss {
			plan.Steps = append(plan.Steps, p.cachePublishStep(fkReg, "Fk"))
		}
	}
	fkFromCache := fkMode == cacheHitClean || fkMode == cacheHitDelta

	// ---- Fj per term: the coarse totals over D1..Dj ----
	// With several terms the Fj aggregates form a lattice: a term whose
	// totals grouping is a subset of an earlier term's (same measure) can
	// aggregate that term's Fj instead of the larger Fk — the bottom-up
	// partial-aggregation the paper's future work likens to association
	// mining.
	type fjDone struct {
		table      string
		totalsCols []string
		measureSQL string
	}
	var done []fjDone
	for ti, t := range terms {
		t.fjTable = p.temp("fj")
		var fjCols, fjSelect []string
		for _, g := range t.totalsCols {
			fjCols = append(fjCols, colDef(g, a.schema[a.schema.ColumnIndex(g)].Type))
			fjSelect = append(fjSelect, quoteIdent(g))
		}
		fjCols = append(fjCols, colDef("A", storage.TypeFloat))
		groupClause := ""
		if len(t.totalsCols) > 0 {
			groupClause = " GROUP BY " + joinIdents(t.totalsCols)
		}

		// Pick the smallest available source: a finished Fj whose grouping
		// covers this term's, else Fk, else F (per strategy).
		source := fk
		sourceMeasure := "sum(" + quoteIdent(t.measureCol) + ")"
		purpose := fmt.Sprintf("compute coarse totals Fj from partial aggregate Fk (term %d)", ti+1)
		if opts.FjFromF {
			source = a.table
			sourceMeasure = "sum(" + t.measure.String() + ")"
			purpose = fmt.Sprintf("compute coarse totals Fj from F (term %d)", ti+1)
		} else {
			best := -1
			for di, d := range done {
				if d.measureSQL != t.measure.String() {
					continue
				}
				covers := true
				for _, c := range t.totalsCols {
					if !containsFold(d.totalsCols, c) {
						covers = false
						break
					}
				}
				if covers && (best < 0 || len(d.totalsCols) < len(done[best].totalsCols)) {
					best = di
				}
			}
			if best >= 0 {
				source = done[best].table
				sourceMeasure = "sum(A)"
				purpose = fmt.Sprintf("compute coarse totals Fj from the finer Fj of term %d (lattice reuse)", best+1)
			}
		}
		fjSelect = append(fjSelect, sourceMeasure)

		fjKey := fmt.Sprintf("fj|%s|%s|%s|%s|%v", fkKey, joinIdents(t.totalsCols), t.measure.String(), sourceMeasure, opts.FjFromF)
		// Fj's delta always re-aggregates the base rows directly (sum is
		// distributive over any partition of F), whatever source the build
		// itself reads from.
		var fjMeta *deltaMeta
		if shareable {
			var fjDeltaSel []string
			for _, g := range t.totalsCols {
				fjDeltaSel = append(fjDeltaSel, quoteIdent(g))
			}
			fjDeltaSel = append(fjDeltaSel, "sum("+t.measure.String()+")")
			fjMeta = &deltaMeta{
				base:    a.table,
				where:   whereSuffix(a.where),
				groupBy: groupClause,
				selects: strings.Join(fjDeltaSel, ", "),
				colDefs: strings.Join(fjCols, ", "),
				nGroup:  len(t.totalsCols),
				merges:  []expr.AggFn{expr.AggSum},
			}
		}
		fjMode := cacheOff
		var fjReg *summaryEntry
		if shareable {
			t.fjTable, fjMode, fjReg = p.cacheLookup(fjKey, t.fjTable, a.table, fjMeta)
		} else {
			plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop Fj", SQL: "DROP TABLE IF EXISTS " + t.fjTable})
		}
		whereClause := ""
		if source == a.table {
			whereClause = whereSuffix(a.where)
		}
		switch fjMode {
		case cacheHitClean:
			plan.cacheHits++
			plan.Steps = append(plan.Steps, cacheHitStep("Fj", t.fjTable))
		case cacheHitDelta:
			plan.cacheHits++
			plan.Steps = append(plan.Steps, p.cacheDeltaStep(fjReg, t.fjTable, "Fj"))
		default:
			if fjMode == cacheMiss {
				plan.cacheRegs = append(plan.cacheRegs, fjReg)
				plan.Steps = append(plan.Steps, p.cacheCaptureStep(fjReg, a.table))
				if fkFromCache && source == fk {
					// The paper's Fj-from-Fk derivation applied across
					// statements: a fresh Fj rolled up from a cached Fk.
					p.mu.Lock()
					p.cstats.FjRollups++
					p.mu.Unlock()
					mCacheFjRollups.Inc()
				}
			}
			plan.Steps = append(plan.Steps,
				Step{Purpose: fmt.Sprintf("create Fj for term %d", ti+1),
					SQL: fmt.Sprintf("CREATE TABLE %s (%s)", t.fjTable, strings.Join(fjCols, ", "))},
				Step{Purpose: purpose,
					SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s%s%s",
						t.fjTable, strings.Join(fjSelect, ", "), source, whereClause, groupClause)},
			)
			if fjMode == cacheMiss {
				plan.Steps = append(plan.Steps, p.cachePublishStep(fjReg, "Fj"))
			}
			if opts.SubkeyIndexes && len(t.totalsCols) > 0 {
				// A clean-hit Fk already carries its subkey index from the
				// plan that built it; re-indexing it every query would pile
				// up duplicates.
				if fkMode != cacheHitClean {
					plan.Steps = append(plan.Steps,
						Step{Purpose: "index Fk on the common subkey",
							SQL: fmt.Sprintf("CREATE INDEX %s ON %s (%s)", p.temp("ixk"), fk, joinIdents(t.totalsCols))},
					)
				}
				plan.Steps = append(plan.Steps,
					Step{Purpose: "index Fj on the common subkey",
						SQL: fmt.Sprintf("CREATE INDEX %s ON %s (%s)", p.temp("ixj"), t.fjTable, joinIdents(t.totalsCols))},
				)
			}
		}
		done = append(done, fjDone{table: t.fjTable, totalsCols: t.totalsCols, measureSQL: t.measure.String()})
	}

	// Output column names, in select-list order.
	outNames := make([]string, len(a.items))
	for idx, it := range a.items {
		switch {
		case it.alias != "":
			outNames[idx] = it.alias
		case it.kind == itemGroupCol:
			outNames[idx] = it.col
		case it.kind == itemPct:
			// The paper's result tables title the percentage column with
			// the measure name (Table 2 heads it "salesAmt").
			if cr, ok := it.agg.Arg.(*expr.ColumnRef); ok {
				outNames[idx] = cr.Name
			} else {
				outNames[idx] = "pct"
			}
		default:
			outNames[idx] = it.agg.String()
		}
	}
	outNames = uniqueNames(outNames)
	for _, t := range terms {
		t.outName = outNames[t.itemIdx]
	}

	// ---- FV: divide the two aggregation levels ----
	var fv string
	if opts.UseUpdate {
		// FV = Fk, updated in place; one cross-table UPDATE per term.
		fv = fk
		for ti, t := range terms {
			where := ""
			if len(t.totalsCols) > 0 {
				where = " WHERE " + equalityChainNullSafe(fk, t.fjTable, t.totalsCols)
			}
			m := fk + "." + quoteIdent(t.measureCol)
			plan.Steps = append(plan.Steps, Step{
				Purpose: fmt.Sprintf("divide in place: UPDATE Fk with Fj totals (term %d)", ti+1),
				SQL: fmt.Sprintf("UPDATE %s FROM %s SET %s = CASE WHEN %s.A <> 0 THEN %s / %s.A ELSE NULL END%s",
					fk, t.fjTable, quoteIdent(t.measureCol), t.fjTable, m, t.fjTable, where),
			})
		}
	} else {
		fv = p.temp("fv")
		plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop FV", SQL: "DROP TABLE IF EXISTS " + fv})
		var fvCols, fvSelect []string
		for idx, it := range a.items {
			name := outNames[idx]
			switch it.kind {
			case itemGroupCol:
				fvCols = append(fvCols, colDef(name, a.schema[a.schema.ColumnIndex(it.col)].Type))
				fvSelect = append(fvSelect, fk+"."+quoteIdent(it.col))
			case itemPct:
				fvCols = append(fvCols, colDef(name, storage.TypeFloat))
				var t *vterm
				for _, tt := range terms {
					if tt.itemIdx == idx {
						t = tt
					}
				}
				m := fk + "." + quoteIdent(t.measureCol)
				fvSelect = append(fvSelect, fmt.Sprintf(
					"CASE WHEN %s.A <> 0 THEN %s / %s.A ELSE NULL END", t.fjTable, m, t.fjTable))
			case itemVertAgg:
				fvCols = append(fvCols, colDef(name, aggResultType(it.agg, a.schema)))
				fvSelect = append(fvSelect, fk+"."+quoteIdent(extraCol[idx]))
			}
		}
		from := []string{fk}
		var conds []string
		for _, t := range terms {
			from = append(from, t.fjTable)
			if len(t.totalsCols) > 0 {
				conds = append(conds, equalityChainNullSafe(fk, t.fjTable, t.totalsCols))
			}
		}
		where := ""
		if len(conds) > 0 {
			where = " WHERE " + strings.Join(conds, " AND ")
		}
		plan.Steps = append(plan.Steps,
			Step{Purpose: "create FV", SQL: fmt.Sprintf("CREATE TABLE %s (%s)", fv, strings.Join(fvCols, ", "))},
			Step{Purpose: "compute FV: join Fk with Fj on the common subkey and divide",
				SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s%s",
					fv, strings.Join(fvSelect, ", "), strings.Join(from, ", "), where)},
		)
	}
	plan.ResultTable = fv
	plan.ResultTables = []string{fv}

	// Optional post-processing: zero-fill missing combinations in FV.
	if opts.MissingRows == MissingPost {
		full, err := p.addMissingPostSteps(plan, a, terms[0], fv, outNames, opts.UseUpdate, extraCol)
		if err != nil {
			return nil, err
		}
		plan.ResultTable = full
		plan.ResultTables = []string{full}
		fv = full
	}

	// ---- final projection ----
	var finalCols []string
	if opts.UseUpdate && opts.MissingRows == MissingNone {
		// Result table is Fk: project its columns into select-list order
		// under the output names.
		for idx, it := range a.items {
			var src string
			switch it.kind {
			case itemGroupCol:
				src = quoteIdent(it.col)
			case itemPct:
				for _, t := range terms {
					if t.itemIdx == idx {
						src = quoteIdent(t.measureCol)
					}
				}
			case itemVertAgg:
				src = quoteIdent(extraCol[idx])
			}
			finalCols = append(finalCols, src+" AS "+quoteIdent(outNames[idx]))
		}
	} else {
		for _, n := range outNames {
			finalCols = append(finalCols, quoteIdent(n))
		}
	}
	plan.FinalSelect = fmt.Sprintf("SELECT %s FROM %s%s%s",
		strings.Join(finalCols, ", "), fv, orderClause(a, outNames), limitClause(a))
	return plan, nil
}

// orderClause renders the query's ORDER BY, defaulting to the GROUP BY
// order the paper prescribes for displaying rows that add up to 100%
// together.
func orderClause(a *analysis, outNames []string) string {
	if len(a.orderBy) > 0 {
		parts := make([]string, len(a.orderBy))
		for i, k := range a.orderBy {
			parts[i] = k.String()
		}
		return " ORDER BY " + strings.Join(parts, ", ")
	}
	var parts []string
	for idx, it := range a.items {
		if it.kind == itemGroupCol {
			parts = append(parts, quoteIdent(outNames[idx]))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " ORDER BY " + strings.Join(parts, ", ")
}

func limitClause(a *analysis) string {
	if a.limit > 0 {
		return fmt.Sprintf(" LIMIT %d", a.limit)
	}
	return ""
}

// addMissingPreSteps implements pre-processing: insert one zero-measure row
// into F per missing (D1..Dj) × (Dj+1..Dk) combination. The measure must be
// a plain column so the inserted rows carry measure 0; every other column
// of F stays NULL. As the paper notes, this fixes measure percentages but
// skews Vpct(1) row counts, and can be expensive with high-dimensional
// cubes.
func (p *Planner) addMissingPreSteps(plan *Plan, a *analysis, t *vterm) error {
	mcol, ok := t.measure.(*expr.ColumnRef)
	if !ok {
		return fmt.Errorf("core: pre-processing of missing rows requires the measure to be a plain column, not %s", t.measure)
	}
	byCols := t.call.By
	sup := p.temp("sup")
	comb := p.temp("comb")
	exist := p.temp("exist")
	for _, tmp := range []string{sup, comb, exist} {
		plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop missing-rows temp", SQL: "DROP TABLE IF EXISTS " + tmp})
	}
	defCols := func(cols []string) string {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = colDef(c, a.schema[a.schema.ColumnIndex(c)].Type)
		}
		return strings.Join(parts, ", ")
	}
	plan.Steps = append(plan.Steps,
		Step{Purpose: "missing rows: distinct super-groups D1..Dj",
			SQL: fmt.Sprintf("CREATE TABLE %s (%s); INSERT INTO %s SELECT DISTINCT %s FROM %s%s",
				sup, defCols(t.totalsCols), sup, joinIdents(t.totalsCols), a.table, whereSuffix(a.where))},
		Step{Purpose: "missing rows: distinct BY combinations Dj+1..Dk",
			SQL: fmt.Sprintf("CREATE TABLE %s (%s); INSERT INTO %s SELECT DISTINCT %s FROM %s%s",
				comb, defCols(byCols), comb, joinIdents(byCols), a.table, whereSuffix(a.where))},
		Step{Purpose: "missing rows: existing D1..Dk combinations",
			SQL: fmt.Sprintf("CREATE TABLE %s (%s); INSERT INTO %s SELECT DISTINCT %s FROM %s%s",
				exist, defCols(a.groupCols), exist, joinIdents(a.groupCols), a.table, whereSuffix(a.where))},
	)
	// Insert a zero-measure row for each (sup × comb) absent from exist.
	selectCols := make([]string, 0, len(a.groupCols)+1)
	insertCols := make([]string, 0, len(a.groupCols)+1)
	for _, g := range a.groupCols {
		insertCols = append(insertCols, quoteIdent(g))
		if containsFold(t.totalsCols, g) {
			selectCols = append(selectCols, sup+"."+quoteIdent(g))
		} else {
			selectCols = append(selectCols, comb+"."+quoteIdent(g))
		}
	}
	insertCols = append(insertCols, quoteIdent(mcol.Name))
	selectCols = append(selectCols, "0")
	onParts := make([]string, 0, len(a.groupCols))
	for _, g := range t.totalsCols {
		onParts = append(onParts, equalityChainNullSafe(exist, sup, []string{g}))
	}
	for _, g := range byCols {
		onParts = append(onParts, equalityChainNullSafe(exist, comb, []string{g}))
	}
	plan.Steps = append(plan.Steps, Step{
		Purpose: "missing rows: insert zero-measure rows into F",
		SQL: fmt.Sprintf("INSERT INTO %s (%s) SELECT %s FROM %s, %s LEFT OUTER JOIN %s ON %s WHERE %s.%s IS NULL",
			a.table, strings.Join(insertCols, ", "), strings.Join(selectCols, ", "),
			sup, comb, exist, strings.Join(onParts, " AND "),
			exist, quoteIdent(a.groupCols[0])),
	})
	return nil
}

// addMissingPostSteps implements post-processing: build FVfull with one row
// per (D1..Dj) × (Dj+1..Dk) combination, zero-filling percentages for
// combinations absent from FV. Returns the full result table name.
func (p *Planner) addMissingPostSteps(plan *Plan, a *analysis, t *vterm, fv string,
	outNames []string, updateVariant bool, extraCol map[int]string) (string, error) {

	byCols := t.call.By
	sup := p.temp("sup")
	comb := p.temp("comb")
	full := p.temp("fvfull")
	for _, tmp := range []string{sup, comb, full} {
		plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop missing-rows temp", SQL: "DROP TABLE IF EXISTS " + tmp})
	}
	defCols := func(cols []string) string {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = colDef(c, a.schema[a.schema.ColumnIndex(c)].Type)
		}
		return strings.Join(parts, ", ")
	}
	plan.Steps = append(plan.Steps,
		Step{Purpose: "missing rows: distinct super-groups D1..Dj",
			SQL: fmt.Sprintf("CREATE TABLE %s (%s); INSERT INTO %s SELECT DISTINCT %s FROM %s%s",
				sup, defCols(t.totalsCols), sup, joinIdents(t.totalsCols), a.table, whereSuffix(a.where))},
		Step{Purpose: "missing rows: distinct BY combinations Dj+1..Dk",
			SQL: fmt.Sprintf("CREATE TABLE %s (%s); INSERT INTO %s SELECT DISTINCT %s FROM %s%s",
				comb, defCols(byCols), comb, joinIdents(byCols), a.table, whereSuffix(a.where))},
	)

	// FVfull mirrors the user-facing result: group columns + percentage.
	var fullCols, selectCols []string
	for idx, it := range a.items {
		name := outNames[idx]
		switch it.kind {
		case itemGroupCol:
			fullCols = append(fullCols, colDef(name, a.schema[a.schema.ColumnIndex(it.col)].Type))
			if containsFold(t.totalsCols, it.col) {
				selectCols = append(selectCols, sup+"."+quoteIdent(it.col))
			} else {
				selectCols = append(selectCols, comb+"."+quoteIdent(it.col))
			}
		case itemPct:
			fullCols = append(fullCols, colDef(name, storage.TypeFloat))
			src := "v." + quoteIdent(name)
			if updateVariant {
				src = "v." + quoteIdent(t.measureCol)
			}
			selectCols = append(selectCols, "coalesce("+src+", 0)")
		}
	}
	// Join FV on every group column: group cols that are totals columns
	// come from sup, BY columns from comb.
	// FV columns carry output names under the INSERT variant and original
	// names under the UPDATE variant.
	nameOf := func(col string) string {
		if updateVariant {
			return col
		}
		for idx, it := range a.items {
			if it.kind == itemGroupCol && strings.EqualFold(it.col, col) {
				return outNames[idx]
			}
		}
		return col
	}
	nullSafePair := func(left, lcol, right, rcol string) string {
		l := left + "." + quoteIdent(lcol)
		r := right + "." + quoteIdent(rcol)
		return fmt.Sprintf("(%s = %s OR (%s IS NULL AND %s IS NULL))", l, r, l, r)
	}
	var onParts []string
	for _, g := range t.totalsCols {
		onParts = append(onParts, nullSafePair("v", nameOf(g), sup, g))
	}
	for _, g := range byCols {
		onParts = append(onParts, nullSafePair("v", nameOf(g), comb, g))
	}
	plan.Steps = append(plan.Steps,
		Step{Purpose: "create FVfull", SQL: fmt.Sprintf("CREATE TABLE %s (%s)", full, strings.Join(fullCols, ", "))},
		Step{Purpose: "missing rows: zero-fill absent combinations into FVfull",
			SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s, %s LEFT OUTER JOIN %s v ON %s",
				full, strings.Join(selectCols, ", "), sup, comb, fv, strings.Join(onParts, " AND "))},
	)
	_ = extraCol
	return full, nil
}
