package core

import (
	"fmt"

	"repro/internal/sqlparse"
)

// Advise picks evaluation strategies for a percentage query following the
// recommendations of the paper's Section 4:
//
//   - Vpct: create identical indexes on the common subkey of Fj and Fk, use
//     INSERT instead of UPDATE "specially when |FV| ≈ |F|", and compute Fj
//     from Fk (sum is distributive).
//   - Hpct: compute FH directly from F "when there are no more than two
//     columns in the list Dj+1..Dk and each of them has low selectivity",
//     and from FV "when there are three or more grouping columns or when
//     the grouping columns have high selectivity".
//   - Hagg: always CASE over SPJ, choosing the indirect (from FV) variant
//     when the fine grouping is much smaller than F.
//
// The advisor never sets CaseTerms: both horizontal classes keep the
// default hash-pivot evaluation of their CASE transposition.
//
// Cardinalities come from live statistics: the number of distinct BY
// combinations (N) is measured with the feedback query, and the fine
// grouping size relative to |F| decides the pre-aggregation questions.
func (p *Planner) Advise(sel *sqlparse.Select) (Options, error) {
	a, err := p.analyze(sel)
	if err != nil {
		return Options{}, err
	}
	opts := DefaultOptions()
	if a.class == ClassStandard {
		return opts, nil
	}

	tab, err := p.Eng.ResolveTable(a.table)
	if err != nil {
		return Options{}, err
	}
	nRows := tab.NumRows()

	// distinctCount measures |distinct cols| with the same feedback query
	// horizontal planning runs.
	distinctCount := func(cols []string) (int, error) {
		if len(cols) == 0 {
			return 1, nil
		}
		combos, err := p.feedbackCombos(a.table, cols, a.whereSQL())
		if err != nil {
			return 0, err
		}
		return len(combos), nil
	}

	switch a.class {
	case ClassVertical:
		// |Fk| ≈ |F| means the partial-aggregate reuse buys little but
		// still never hurts; keep the defaults. The UPDATE variant is only
		// attractive when disk for a third table is the constraint, which
		// an advisor cannot see — the paper recommends INSERT, so we do.
		return opts, nil

	case ClassHorizontalPct, ClassHorizontalAgg:
		var byCols []string
		for _, it := range a.items {
			if it.kind == itemPct || it.kind == itemHoriz {
				byCols = it.agg.By
				break
			}
		}
		n, err := distinctCount(byCols)
		if err != nil {
			return Options{}, err
		}
		fineCols := append(append([]string{}, a.groupCols...), byCols...)
		fine, err := distinctCount(fineCols)
		if err != nil {
			return Options{}, err
		}
		// From FV pays when the pre-aggregate is much smaller than F (the
		// transposition then reads |Fk| rows instead of |F|), or when the
		// subgrouping is wide/selective, matching the paper's rule of
		// thumb.
		fromFV := len(byCols) >= 3 || n >= 50 || (nRows > 0 && fine*4 <= nRows)
		if a.class == ClassHorizontalPct {
			opts.Hpct.FromFV = fromFV
			opts.Hpct.Vpct = VpctOptions{SubkeyIndexes: true}
		} else {
			opts.Hagg.Method = HaggCASE
			opts.Hagg.FromFV = fromFV
		}
		return opts, nil
	}
	return opts, fmt.Errorf("core: unadvisable class %v", a.class)
}
