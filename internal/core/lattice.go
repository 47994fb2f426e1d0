package core

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/storage"
)

// maxLatticeNodes caps the resolved grouping-set lattice. CUBE doubles the
// node count per dimension, so the cap corresponds to CUBE over eight
// dimensions — beyond that the cross-tab result is almost certainly a
// mistake, and the per-node plan steps would dwarf the base-table scan the
// lattice exists to avoid.
const maxLatticeNodes = 256

// mergeSelect renders the re-aggregation of an already aggregated column one
// lattice level coarser with its super-aggregate fn (see mergeOpFor).
func mergeSelect(fn expr.AggFn, col string) string {
	return string(fn) + "(" + quoteIdent(col) + ")"
}

// planLattice generates the evaluation plan for GROUP BY ROLLUP / CUBE /
// GROUPING SETS. The paper's percentage aggregations compose with Gray
// et al.'s data cube by planning the lattice bottom-up: one scan of F
// builds the finest summary FS (grouped by the union of every set's
// dimensions, plus any Hpct BY columns), and every coarser node re-aggregates
// FS — legal because every value column is distributive (measure sums
// always; accompanying plain aggregates are restricted to sum, count, min
// and max). Vpct totals (Fj) and the final division run per node against
// the node's own summary, so percentage-of-parent semantics fall out of the
// existing super-group machinery with the node's grouping standing in for
// GROUP BY.
//
// FS shares the summary cache with planVertical's Fk (same key layout), so
// a cached finest summary answers the whole lattice under DML through the
// usual epoch/delta maintenance.
//
// Rows land in a cross-tab table FC node by node, finest first, with NULL
// filling the dimensions a node rolled away and GROUPING(d1, …) markers
// materialized as integer literals per node.
func (p *Planner) planLattice(a *analysis, opts Options) (*Plan, error) {
	kw := a.setsKind.Keyword()
	if a.class == ClassHorizontalAgg {
		return nil, fmt.Errorf("core: horizontal aggregations are not supported with GROUP BY %s", kw)
	}
	if a.class == ClassVertical {
		if opts.Vpct.UseUpdate {
			return nil, fmt.Errorf("core: the UPDATE strategy mutates its summary in place and cannot be combined with GROUP BY %s", kw)
		}
		if opts.Vpct.MissingRows != MissingNone {
			return nil, fmt.Errorf("core: missing-row handling is not supported with GROUP BY %s", kw)
		}
	}
	if a.class == ClassHorizontalPct && opts.Hpct.FromFV {
		return nil, fmt.Errorf("core: the from-FV strategy is not supported with GROUP BY %s; use the direct strategy", kw)
	}
	if len(a.sets) == 0 {
		return nil, fmt.Errorf("core: internal: GROUP BY %s resolved to no grouping sets", kw)
	}
	if len(a.sets) > maxLatticeNodes {
		return nil, fmt.Errorf("core: GROUP BY %s expands to %d grouping sets; the limit is %d", kw, len(a.sets), maxLatticeNodes)
	}

	plan := &Plan{Class: a.class}

	// ---- gather terms ----
	// Measure columns are shared across percentage terms with the same
	// expression, exactly as planVertical shares them, so a Vertical-class
	// lattice query produces the same FS layout (and cache key) planVertical
	// would produce for its Fk.
	type mcol struct {
		sql, col string
		arg      expr.Expr
	}
	var measureOrder []mcol
	measureCols := map[string]string{}
	measureOf := func(arg expr.Expr) string {
		mSQL := arg.String()
		col, ok := measureCols[mSQL]
		if !ok {
			col = fmt.Sprintf("m%d", len(measureOrder)+1)
			measureCols[mSQL] = col
			measureOrder = append(measureOrder, mcol{sql: mSQL, col: col, arg: arg})
		}
		return col
	}

	type vpctTerm struct {
		itemIdx    int
		call       *expr.AggCall
		measureCol string
	}
	type hpctTerm struct {
		itemIdx    int
		call       *expr.AggCall
		measureCol string
		combos     []combo
	}
	var vterms []*vpctTerm
	var hterms []*hpctTerm
	var extras []int
	for idx, it := range a.items {
		switch it.kind {
		case itemPct:
			if it.agg.Fn == expr.AggVpct {
				vterms = append(vterms, &vpctTerm{itemIdx: idx, call: it.agg, measureCol: measureOf(it.agg.Arg)})
				continue
			}
			// Hpct: the feedback pass defines the pivot columns once for the
			// whole lattice; every node shares the layout.
			combos, err := p.feedbackCombos(a.table, it.agg.By, a.whereSQL())
			if err != nil {
				return nil, err
			}
			if len(combos) == 0 {
				return nil, fmt.Errorf("core: Hpct over empty input: no BY combinations in %s", a.table)
			}
			hterms = append(hterms, &hpctTerm{itemIdx: idx, call: it.agg, measureCol: measureOf(it.agg.Arg), combos: combos})
		case itemVertAgg:
			if _, ok := mergeOpFor(it.agg); !ok {
				return nil, fmt.Errorf("core: %s is not distributive and cannot be derived from the finest lattice summary; only sum, count, min and max can accompany GROUP BY %s", it.agg, kw)
			}
			extras = append(extras, idx)
		}
	}

	// ---- FS: the finest summary, the lattice's only base-table scan ----
	// Its grouping is the finest dimension list plus any Hpct BY columns:
	// node derivation needs the BY values to pivot on.
	fsGroup := append([]string(nil), a.groupCols...)
	for _, t := range hterms {
		for _, b := range t.call.By {
			if !containsFold(fsGroup, b) {
				fsGroup = append(fsGroup, b)
			}
		}
	}

	var fsCols, fsSelect []string
	for _, g := range fsGroup {
		fsCols = append(fsCols, colDef(g, a.schema[a.schema.ColumnIndex(g)].Type))
		fsSelect = append(fsSelect, quoteIdent(g))
	}
	merges := make([]expr.AggFn, 0, len(measureOrder)+len(extras)+1)
	for _, m := range measureOrder {
		fsCols = append(fsCols, colDef(m.col, exprType(m.arg, a.schema)))
		fsSelect = append(fsSelect, "sum("+m.sql+")")
		merges = append(merges, expr.AggSum)
	}
	extraCol := map[int]string{}
	extraOp := map[int]expr.AggFn{}
	for n, idx := range extras {
		call := a.items[idx].agg
		col := fmt.Sprintf("x%d", n+1)
		extraCol[idx] = col
		op, _ := mergeOpFor(call)
		extraOp[idx] = op
		merges = append(merges, op)
		fsCols = append(fsCols, colDef(col, aggResultType(call, a.schema)))
		fsSelect = append(fsSelect, call.String())
	}
	// A query of bare dimensions and GROUPING markers has no value columns;
	// carry a row count so every node summary stays a well-formed relation
	// (and the grand-total node has something to aggregate).
	filler := len(measureOrder) == 0 && len(extras) == 0
	if filler {
		fsCols = append(fsCols, colDef("cnt", storage.TypeInt))
		fsSelect = append(fsSelect, "count(*)")
		merges = append(merges, expr.AggSum)
	}

	// Same key layout as planVertical's Fk, so lattice and plain Vpct plans
	// share one cached summary.
	fsKey := fmt.Sprintf("fk|%s|%s|%s|%s|%s", a.table, whereSuffix(a.where),
		joinIdents(fsGroup), strings.Join(fsSelect, ","), strings.Join(fsCols, ","))
	// Virtual relations are excluded for the same reason as in planVertical:
	// no DML hook ever validates or maintains a summary cached over them.
	shareable := p.shareSummaries && len(fsGroup) > 0 && !p.Eng.IsVirtualTable(a.table)
	var fsMeta *deltaMeta
	if shareable {
		// Every column is distributive by construction, so FS is always
		// incrementally maintainable.
		fsMeta = &deltaMeta{
			base:    a.table,
			where:   whereSuffix(a.where),
			groupBy: groupByClause(fsGroup),
			selects: strings.Join(fsSelect, ", "),
			colDefs: strings.Join(fsCols, ", "),
			nGroup:  len(fsGroup),
			merges:  merges,
		}
	}
	fs := p.temp("fs")
	fsMode := cacheOff
	var fsReg *summaryEntry
	if shareable {
		fs, fsMode, fsReg = p.cacheLookup(fsKey, fs, a.table, fsMeta)
	} else {
		plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop FS", SQL: "DROP TABLE IF EXISTS " + fs})
	}
	switch fsMode {
	case cacheHitClean:
		plan.cacheHits++
		plan.Steps = append(plan.Steps, cacheHitStep("FS", fs))
	case cacheHitDelta:
		plan.cacheHits++
		plan.Steps = append(plan.Steps, p.cacheDeltaStep(fsReg, fs, "FS"))
	default:
		if fsMode == cacheMiss {
			plan.cacheRegs = append(plan.cacheRegs, fsReg)
			plan.Steps = append(plan.Steps, p.cacheCaptureStep(fsReg, a.table))
		}
		plan.Steps = append(plan.Steps,
			Step{Purpose: "create FS", SQL: fmt.Sprintf("CREATE TABLE %s (%s)", fs, strings.Join(fsCols, ", "))},
			Step{Purpose: "compute finest summary FS from F (the lattice's only base-table scan)",
				SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s%s%s",
					fs, strings.Join(fsSelect, ", "), a.table, whereSuffix(a.where), groupByClause(fsGroup))},
		)
		if fsMode == cacheMiss {
			plan.Steps = append(plan.Steps, p.cachePublishStep(fsReg, "FS"))
		}
	}
	fsFromCache := fsMode == cacheHitClean || fsMode == cacheHitDelta

	p.mu.Lock()
	p.cstats.LatticePlans++
	p.cstats.LatticeNodes += int64(len(a.sets))
	if fsFromCache {
		p.cstats.LatticeFinestReused++
	}
	p.mu.Unlock()
	mCacheLatticePlans.Inc()
	for range a.sets {
		mCacheLatticeNodes.Inc()
	}
	if fsFromCache {
		mCacheLatticeReused.Inc()
	}

	// ---- output columns ----
	// One name per select item, except Hpct items which expand to one column
	// per BY combination under planHorizontalPct's naming discipline.
	htermOf := func(idx int) *hpctTerm {
		for _, t := range hterms {
			if t.itemIdx == idx {
				return t
			}
		}
		return nil
	}
	multiH := len(hterms) > 1
	itemNames := make([][]string, len(a.items))
	for idx, it := range a.items {
		switch it.kind {
		case itemGroupCol:
			name := it.col
			if it.alias != "" {
				name = it.alias
			}
			itemNames[idx] = []string{name}
		case itemPct:
			if it.agg.Fn == expr.AggVpct {
				name := "pct"
				if it.alias != "" {
					name = it.alias
				} else if cr, ok := it.agg.Arg.(*expr.ColumnRef); ok {
					name = cr.Name
				}
				itemNames[idx] = []string{name}
				continue
			}
			t := htermOf(idx)
			prefix := ""
			if multiH {
				if it.alias != "" {
					prefix = it.alias + ":"
				} else if cr, ok := t.call.Arg.(*expr.ColumnRef); ok {
					prefix = cr.Name + ":"
				} else {
					prefix = fmt.Sprintf("pct%d:", t.itemIdx)
				}
			}
			for _, c := range t.combos {
				itemNames[idx] = append(itemNames[idx], prefix+c.label)
			}
		case itemVertAgg:
			if it.alias != "" {
				itemNames[idx] = []string{it.alias}
			} else {
				itemNames[idx] = []string{it.agg.String()}
			}
		case itemGrouping:
			if it.alias != "" {
				itemNames[idx] = []string{it.alias}
			} else {
				itemNames[idx] = []string{"grouping(" + strings.Join(it.gcols, ", ") + ")"}
			}
		}
	}
	var flat []string
	for _, ns := range itemNames {
		flat = append(flat, ns...)
	}
	flat = uniqueNames(flat)
	// itemPos[idx] is the 1-based FC position of item idx's first column.
	itemPos := make([]int, len(a.items))
	pos := 0
	for idx, ns := range itemNames {
		itemPos[idx] = pos + 1
		copy(ns, flat[pos:pos+len(ns)])
		pos += len(ns)
	}

	if p.MaxColumns > 0 && len(flat) > p.MaxColumns {
		return nil, fmt.Errorf("core: result needs %d columns but MaxColumns is %d; grouping-set results cannot be partitioned",
			len(flat), p.MaxColumns)
	}
	for _, t := range hterms {
		plan.N += len(t.combos)
	}

	// ---- FC: the cross-tab result, one block of rows per lattice node ----
	var fcCols []string
	for idx, it := range a.items {
		ns := itemNames[idx]
		switch it.kind {
		case itemGroupCol:
			fcCols = append(fcCols, colDef(ns[0], a.schema[a.schema.ColumnIndex(it.col)].Type))
		case itemPct:
			for _, n := range ns {
				fcCols = append(fcCols, colDef(n, storage.TypeFloat))
			}
		case itemVertAgg:
			fcCols = append(fcCols, colDef(ns[0], aggResultType(it.agg, a.schema)))
		case itemGrouping:
			fcCols = append(fcCols, colDef(ns[0], storage.TypeInt))
		}
	}
	fc := p.temp("fc")
	plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop FC", SQL: "DROP TABLE IF EXISTS " + fc})
	plan.Steps = append(plan.Steps, Step{Purpose: "create cross-tab result FC",
		SQL: fmt.Sprintf("CREATE TABLE %s (%s)", fc, strings.Join(fcCols, ", "))})

	// Per-node ORDER BY over the node's own dimensions (by FC position)
	// keeps each block internally sorted. It is only emitted when every
	// dimension of the set is selected — a total order over the node's key —
	// so the block order cannot depend on sort stability.
	nodeOrder := func(set []string) string {
		var parts []string
		for _, d := range set {
			found := false
			for idx, it := range a.items {
				if it.kind == itemGroupCol && strings.EqualFold(it.col, d) {
					parts = append(parts, fmt.Sprintf("%d", itemPos[idx]))
					found = true
					break
				}
			}
			if !found {
				return ""
			}
		}
		if len(parts) == 0 {
			return ""
		}
		return " ORDER BY " + strings.Join(parts, ", ")
	}

	// ---- per-node derivation, finest first ----
	for ni, set := range a.sets {
		label := "(" + strings.Join(set, ", ") + ")"
		inSet := func(col string) bool { return containsFold(set, col) }

		groupClause := ""
		if len(set) > 0 {
			groupClause = " GROUP BY " + joinIdents(set)
		}

		if len(hterms) > 0 {
			// Horizontal node: one hash pivot of FS (or, with CaseTerms, one
			// grouped select of CASE terms over FS) computes every pivot
			// cell, then a plain projection lands the block in FC (literals —
			// NULL dims and GROUPING markers — stay out of the pivot).
			nh := p.temp("nh")
			plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop node summary", SQL: "DROP TABLE IF EXISTS " + nh})
			var nhCols, nhSelect []string
			for _, g := range set {
				nhCols = append(nhCols, colDef(g, a.schema[a.schema.ColumnIndex(g)].Type))
				nhSelect = append(nhSelect, quoteIdent(g))
			}
			hcell := map[int][]string{} // itemIdx → value column names
			node := fhPart{table: nh}
			pv := newPivotPlan(set)
			hn := 0
			for _, t := range hterms {
				m := quoteIdent(t.measureCol)
				measure := &expr.ColumnRef{Name: t.measureCol}
				cells, total := pv.sumOf(measure, t.call.By, t.combos), pv.sumOf(measure, nil, nil)
				for ci, c := range t.combos {
					hn++
					col := fmt.Sprintf("h%d", hn)
					hcell[t.itemIdx] = append(hcell[t.itemIdx], col)
					cond := comboCond("", t.call.By, c.vals)
					nhCols = append(nhCols, colDef(col, storage.TypeFloat))
					nhSelect = append(nhSelect, fmt.Sprintf(
						"CASE WHEN sum(%s) <> 0 THEN sum(CASE WHEN %s THEN %s ELSE 0 END) / sum(%s) ELSE NULL END",
						m, cond, m, m))
					node.cols = append(node.cols, hvalue{emit: pctOf(cells+ci, total)})
				}
			}
			for _, idx := range extras {
				nhCols = append(nhCols, colDef(extraCol[idx], aggResultType(a.items[idx].agg, a.schema)))
				nhSelect = append(nhSelect, mergeSelect(extraOp[idx], extraCol[idx]))
				x := pv.add(&expr.AggCall{Fn: extraOp[idx]}, &expr.ColumnRef{Name: extraCol[idx]}, nil, nil)
				node.cols = append(node.cols, hvalue{emit: cellOf(x, nil)})
			}
			fill := Step{Purpose: fmt.Sprintf("lattice node %s: pivot from FS", label),
				SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s%s",
					nh, strings.Join(nhSelect, ", "), fs, groupClause)}
			if !opts.Hpct.CaseTerms {
				fill = pivotStep(fmt.Sprintf("lattice node %s: hash-pivot FS", label), fs, nil, pv, []fhPart{node})
			}
			plan.Steps = append(plan.Steps,
				Step{Purpose: fmt.Sprintf("create summary for lattice node %s", label),
					SQL: fmt.Sprintf("CREATE TABLE %s (%s)", nh, strings.Join(nhCols, ", "))},
				fill,
			)

			var proj []string
			for idx, it := range a.items {
				switch it.kind {
				case itemGroupCol:
					if inSet(it.col) {
						proj = append(proj, quoteIdent(it.col))
					} else {
						proj = append(proj, "NULL")
					}
				case itemPct:
					for _, c := range hcell[idx] {
						proj = append(proj, quoteIdent(c))
					}
				case itemVertAgg:
					proj = append(proj, quoteIdent(extraCol[idx]))
				case itemGrouping:
					proj = append(proj, fmt.Sprintf("%d", groupingMarker(it.gcols, set)))
				}
			}
			plan.Steps = append(plan.Steps, Step{
				Purpose: fmt.Sprintf("lattice node %d %s: append cross-tab rows to FC", ni+1, label),
				SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s%s",
					fc, strings.Join(proj, ", "), nh, nodeOrder(set)),
			})
			continue
		}

		// Vertical / standard node: the finest node is served by FS itself;
		// coarser nodes re-aggregate it.
		nodeAgg := fs
		if !sameColumnSet(set, fsGroup) {
			nodeAgg = p.temp("nfk")
			plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop node summary", SQL: "DROP TABLE IF EXISTS " + nodeAgg})
			var nCols, nSelect []string
			for _, g := range set {
				nCols = append(nCols, colDef(g, a.schema[a.schema.ColumnIndex(g)].Type))
				nSelect = append(nSelect, quoteIdent(g))
			}
			for _, m := range measureOrder {
				nCols = append(nCols, colDef(m.col, exprType(m.arg, a.schema)))
				nSelect = append(nSelect, "sum("+quoteIdent(m.col)+")")
			}
			for _, idx := range extras {
				nCols = append(nCols, colDef(extraCol[idx], aggResultType(a.items[idx].agg, a.schema)))
				nSelect = append(nSelect, mergeSelect(extraOp[idx], extraCol[idx]))
			}
			if filler {
				nCols = append(nCols, colDef("cnt", storage.TypeInt))
				nSelect = append(nSelect, "sum(cnt)")
			}
			plan.Steps = append(plan.Steps,
				Step{Purpose: fmt.Sprintf("create summary for lattice node %s", label),
					SQL: fmt.Sprintf("CREATE TABLE %s (%s)", nodeAgg, strings.Join(nCols, ", "))},
				Step{Purpose: fmt.Sprintf("lattice node %s: roll up from FS", label),
					SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s%s",
						nodeAgg, strings.Join(nSelect, ", "), fs, groupClause)},
			)
		}

		// Vpct totals per term: Fj groups the node summary by the node's
		// super-group (the node dimensions minus BY), and the division joins
		// it back — the paper's Section 3.1 with this node standing in for
		// GROUP BY.
		fjOf := map[int]string{}
		fjCols := map[int][]string{}
		for vi, t := range vterms {
			// An empty BY list means totals over all rows (j = 0), exactly as
			// in totalsColsOf; otherwise the node's super-group is its
			// dimensions minus BY.
			var totals []string
			if len(t.call.By) > 0 {
				for _, g := range set {
					if !containsFold(t.call.By, g) {
						totals = append(totals, g)
					}
				}
			}
			fj := p.temp("fj")
			fjOf[t.itemIdx] = fj
			fjCols[t.itemIdx] = totals
			plan.Cleanup = append(plan.Cleanup, Step{Purpose: "drop Fj", SQL: "DROP TABLE IF EXISTS " + fj})
			var cols, sel []string
			for _, g := range totals {
				cols = append(cols, colDef(g, a.schema[a.schema.ColumnIndex(g)].Type))
				sel = append(sel, quoteIdent(g))
			}
			cols = append(cols, colDef("A", storage.TypeFloat))
			sel = append(sel, "sum("+quoteIdent(t.measureCol)+")")
			gc := ""
			if len(totals) > 0 {
				gc = " GROUP BY " + joinIdents(totals)
			}
			plan.Steps = append(plan.Steps,
				Step{Purpose: fmt.Sprintf("create Fj for lattice node %s (term %d)", label, vi+1),
					SQL: fmt.Sprintf("CREATE TABLE %s (%s)", fj, strings.Join(cols, ", "))},
				Step{Purpose: fmt.Sprintf("lattice node %s: totals Fj from the node summary (term %d)", label, vi+1),
					SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s%s",
						fj, strings.Join(sel, ", "), nodeAgg, gc)},
			)
		}

		from := []string{nodeAgg}
		var conds []string
		for _, t := range vterms {
			fj := fjOf[t.itemIdx]
			from = append(from, fj)
			if len(fjCols[t.itemIdx]) > 0 {
				conds = append(conds, equalityChainNullSafe(nodeAgg, fj, fjCols[t.itemIdx]))
			}
		}
		qualify := len(from) > 1
		ref := func(col string) string {
			if qualify {
				return nodeAgg + "." + quoteIdent(col)
			}
			return quoteIdent(col)
		}
		var proj []string
		for idx, it := range a.items {
			switch it.kind {
			case itemGroupCol:
				if inSet(it.col) {
					proj = append(proj, ref(it.col))
				} else {
					proj = append(proj, "NULL")
				}
			case itemPct:
				var t *vpctTerm
				for _, tt := range vterms {
					if tt.itemIdx == idx {
						t = tt
					}
				}
				fj := fjOf[idx]
				proj = append(proj, fmt.Sprintf("CASE WHEN %s.A <> 0 THEN %s / %s.A ELSE NULL END",
					fj, ref(t.measureCol), fj))
			case itemVertAgg:
				proj = append(proj, ref(extraCol[idx]))
			case itemGrouping:
				proj = append(proj, fmt.Sprintf("%d", groupingMarker(it.gcols, set)))
			}
		}
		where := ""
		if len(conds) > 0 {
			where = " WHERE " + strings.Join(conds, " AND ")
		}
		plan.Steps = append(plan.Steps, Step{
			Purpose: fmt.Sprintf("lattice node %d %s: append cross-tab rows to FC", ni+1, label),
			SQL: fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s%s%s",
				fc, strings.Join(proj, ", "), strings.Join(from, ", "), where, nodeOrder(set)),
		})
	}

	// ---- final projection ----
	// No default ordering: the node-major block order is the result's shape
	// (finest first, grand total last), and a group-column sort would
	// interleave the blocks. The user's ORDER BY still applies.
	finalCols := make([]string, len(flat))
	for i, n := range flat {
		finalCols[i] = quoteIdent(n)
	}
	userOrder := ""
	if len(a.orderBy) > 0 {
		parts := make([]string, len(a.orderBy))
		for i, k := range a.orderBy {
			parts[i] = k.String()
		}
		userOrder = " ORDER BY " + strings.Join(parts, ", ")
	}
	plan.ResultTable = fc
	plan.ResultTables = []string{fc}
	plan.FinalSelect = fmt.Sprintf("SELECT %s FROM %s%s%s",
		strings.Join(finalCols, ", "), fc, userOrder, limitClause(a))
	return plan, nil
}

// groupingMarker computes the GROUPING(d1, …, dn) bit vector for a lattice
// node: bit n-1-i is set when di is rolled away (absent from the node's
// grouping set), matching the SQL standard's GROUPING semantics.
func groupingMarker(gcols, set []string) int {
	marker := 0
	for i, g := range gcols {
		if !containsFold(set, g) {
			marker |= 1 << (len(gcols) - 1 - i)
		}
	}
	return marker
}
