package core

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// combo is one distinct combination of BY-column values, defining one
// result column of a horizontal aggregation.
type combo struct {
	vals  []value.Value
	label string
}

// feedbackCombos runs the feedback query the paper requires to lay out FH:
// the distinct Dj+1..Dk combinations of F, ordered for deterministic column
// order. It is issued as SELECT Dj+1..Dk FROM F GROUP BY Dj+1..Dk rather
// than SELECT DISTINCT: the same rows in the same order, but folded by the
// engine's aggregation kernel instead of projecting every row of F first.
func (p *Planner) feedbackCombos(table string, byCols []string, whereSQL string) ([]combo, error) {
	by := joinIdents(byCols)
	sql := fmt.Sprintf("SELECT %s FROM %s%s GROUP BY %s ORDER BY %s", by, table, whereSQL, by, by)
	res, err := p.Eng.ExecSQL(sql)
	if err != nil {
		return nil, fmt.Errorf("core: feedback query failed: %w", err)
	}
	out := make([]combo, 0, len(res.Rows))
	// pctvet:ok O(1) copy per row of a result the feedback statement already governed
	for _, row := range res.Rows {
		out = append(out, combo{vals: row, label: comboLabel(byCols, row)})
	}
	return out, nil
}

// comboLabel names a result column after its combination of values: bare
// values for a single BY column ("Mon"), col=value pairs otherwise
// ("dweek=1,month=2"). NULLs render as the word NULL.
func comboLabel(byCols []string, vals []value.Value) string {
	if len(byCols) == 1 {
		return vals[0].String()
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = byCols[i] + "=" + v.String()
	}
	return strings.Join(parts, ",")
}

// comboCond renders the boolean conjunction matching one combination:
// "Dh = vh AND … AND Dk = vk", with IS NULL for NULL values. qualifier, if
// nonempty, prefixes column references.
func comboCond(qualifier string, byCols []string, vals []value.Value) string {
	parts := make([]string, len(byCols))
	for i, c := range byCols {
		ref := quoteIdent(c)
		if qualifier != "" {
			ref = qualifier + "." + ref
		}
		if vals[i].IsNull() {
			parts[i] = ref + " IS NULL"
		} else {
			parts[i] = ref + " = " + literalSQL(vals[i])
		}
	}
	return strings.Join(parts, " AND ")
}

// whereSQLOf renders the analysis WHERE clause as a SQL suffix.
func (a *analysis) whereSQL() string { return whereSuffix(a.where) }

// andWhere combines a combo condition with the user WHERE clause into one
// WHERE clause.
func andWhere(cond string, a *analysis) string {
	if a.where == nil {
		return " WHERE " + cond
	}
	return " WHERE " + cond + " AND (" + a.where.String() + ")"
}

// groupByClause renders " GROUP BY cols" or "" for j = 0.
func groupByClause(cols []string) string {
	if len(cols) == 0 {
		return ""
	}
	return " GROUP BY " + joinIdents(cols)
}
