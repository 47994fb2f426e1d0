package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/workload"
)

// Data sizes: the MediumConfig scale of the paper-table harness
// (employee 100k rows, sales 300k rows, 50 departments and 10 stores).
const (
	employeeRows = 100_000
	salesRows    = 300_000
)

func salesCards() workload.Cardinalities {
	c := workload.PaperCardinalities()
	c.Dept = 50
	c.Store = 10
	return c
}

// statement is one SQL statement of a workload with its op type and the
// structural check its result gets.
type statement struct {
	label string
	op    string // vpct, hpct, hagg, cube, plain, proj
	sql   string
	chk   check
}

// pq is a paper query: a fact table, a measure, the totals grouping and
// the BY subgrouping (the paper's "by | totals" labels).
type pq struct {
	table, measure string
	totals, by     []string
}

func (q pq) label() string {
	t := "-"
	if len(q.totals) > 0 {
		t = strings.Join(q.totals, ",")
	}
	return fmt.Sprintf("%s %s | %s", q.table, strings.Join(q.by, ","), t)
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

func (q pq) vpct() statement {
	j, k := len(q.totals), len(q.totals)+len(q.by)
	all := strings.Join(append(append([]string{}, q.totals...), q.by...), ", ")
	sql := fmt.Sprintf("SELECT %s, Vpct(%s BY %s) FROM %s GROUP BY %s",
		all, q.measure, strings.Join(q.by, ", "), q.table, all)
	if j == 0 {
		sql = fmt.Sprintf("SELECT %s, Vpct(%s) FROM %s GROUP BY %s", all, q.measure, q.table, all)
	}
	return statement{label: q.label(), op: "vpct", sql: sql,
		chk: check{kind: checkVpct, pct: k, key: seq(0, j)}}
}

func (q pq) hpct() statement {
	j := len(q.totals)
	sql := fmt.Sprintf("SELECT Hpct(%s BY %s) FROM %s", q.measure, strings.Join(q.by, ", "), q.table)
	if j > 0 {
		t := strings.Join(q.totals, ", ")
		sql = fmt.Sprintf("SELECT %s, Hpct(%s BY %s) FROM %s GROUP BY %s",
			t, q.measure, strings.Join(q.by, ", "), q.table, t)
	}
	return statement{label: q.label(), op: "hpct", sql: sql, chk: check{kind: checkHpct, lead: j}}
}

// hagg is the companion paper's horizontal aggregation with the plain
// sum(A) beside it, so the check can compare it with the row sum.
func (q pq) hagg() statement {
	t := strings.Join(q.totals, ", ")
	sql := fmt.Sprintf("SELECT %s, sum(%s BY %s), sum(%s) FROM %s GROUP BY %s",
		t, q.measure, strings.Join(q.by, ", "), q.measure, q.table, t)
	return statement{label: q.label(), op: "hagg", sql: sql, chk: check{kind: checkHagg, lead: len(q.totals)}}
}

// cube is the Vpct as a ROLLUP percentage cube with its GROUPING marker.
func (q pq) cube() statement {
	j, k := len(q.totals), len(q.totals)+len(q.by)
	all := strings.Join(append(append([]string{}, q.totals...), q.by...), ", ")
	sql := fmt.Sprintf("SELECT %s, Vpct(%s BY %s), GROUPING(%s) FROM %s GROUP BY ROLLUP(%s)",
		all, q.measure, strings.Join(q.by, ", "), all, q.table, all)
	return statement{label: q.label(), op: "cube", sql: sql,
		chk: check{kind: checkVpct, pct: k, key: append(seq(0, j), k+1)}}
}

// The eight primary queries of the paper's Tables 4-6.
var (
	pqEmpGender     = pq{"employee", "salary", nil, []string{"gender"}}
	pqEmpMarGender  = pq{"employee", "salary", []string{"marstatus"}, []string{"gender"}}
	pqEmpEduGender  = pq{"employee", "salary", []string{"educat", "marstatus"}, []string{"gender"}}
	pqEmpAgeGenEdu  = pq{"employee", "salary", []string{"age", "marstatus"}, []string{"gender", "educat"}}
	pqSalesDweek    = pq{"sales", "salesAmt", nil, []string{"dweek"}}
	pqSalesMonth    = pq{"sales", "salesAmt", []string{"dweek"}, []string{"monthNo"}}
	pqSalesDept     = pq{"sales", "salesAmt", []string{"dweek", "monthNo"}, []string{"dept"}}
	pqSalesDeptStor = pq{"sales", "salesAmt", []string{"dweek", "monthNo"}, []string{"dept", "store"}}
)

// paperMix is the paper_mix statement set: the eight primary queries as
// Vpct and as Hpct, three as Hagg and three as ROLLUP cubes. The Hpct of
// sales dept,store | dweek,monthNo (500 result columns) is left out: its
// CASE plan alone runs for tens of seconds at this scale.
func paperMix() []statement {
	primary := []pq{pqEmpGender, pqEmpMarGender, pqEmpEduGender, pqEmpAgeGenEdu,
		pqSalesDweek, pqSalesMonth, pqSalesDept, pqSalesDeptStor}
	var out []statement
	for _, q := range primary {
		out = append(out, q.vpct())
	}
	for _, q := range primary[:7] {
		out = append(out, q.hpct())
	}
	for _, q := range []pq{pqEmpMarGender, pqEmpAgeGenEdu, pqSalesMonth} {
		out = append(out, q.hagg())
	}
	for _, q := range []pq{pqEmpMarGender, pqSalesMonth, pqSalesDept} {
		out = append(out, q.cube())
	}
	return out
}

// dashboard is the dashboard_appends statement set: six statements over
// two fine groupings of sales, (dweek, monthNo) and (dept, store).
func dashboard() (vpct, cube []statement, hpct, hagg statement) {
	byMonth := pq{"sales", "salesAmt", []string{"dweek"}, []string{"monthNo"}}
	byStore := pq{"sales", "salesAmt", []string{"dept"}, []string{"store"}}
	return []statement{byMonth.vpct(), byStore.vpct()},
		[]statement{byMonth.cube(), byStore.cube()},
		byMonth.hpct(), byStore.hagg()
}

// Dashboard cycle shape: each cycle runs dashReadsPerStmt reads of each of
// the four cached statements plus one Hpct and one Hagg, in seeded order,
// with an append of dashAppendRows rows after every dashReadsPerAppend-th
// read.
const (
	dashReadsPerStmt   = 250
	dashReadsPerAppend = 8
	dashAppendRows     = 10
)

// op is one operation of a closed-loop cycle: a read statement or an
// append (st nil, sql the INSERT).
type op struct {
	st  *statement
	sql string
}

func (o op) kind() string {
	if o.st == nil {
		return "append"
	}
	return o.st.op
}

// paperCycle is one pass over the paper mix in seeded order.
func paperCycle(rng *rand.Rand, mix []statement) []op {
	out := make([]op, len(mix))
	for i, j := range rng.Perm(len(mix)) {
		out[i] = op{st: &mix[j], sql: mix[j].sql}
	}
	return out
}

// salesAppender generates seeded INSERT statements for sales (or a table
// with its schema), continuing the transactionId sequence.
type salesAppender struct {
	table  string
	nextID int
	card   workload.Cardinalities
}

func (a *salesAppender) insert(rng *rand.Rand, rows int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", a.table)
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		a.nextID++
		fmt.Fprintf(&sb, "(%d, %d, %d, %d, %d, %d, %d, %d, %d)", a.nextID,
			rng.Intn(a.card.ItemID), rng.Intn(a.card.Dweek), rng.Intn(a.card.MonthNo),
			rng.Intn(a.card.Store), rng.Intn(a.card.City), rng.Intn(a.card.State),
			rng.Intn(a.card.Dept), 1+rng.Intn(500))
	}
	return sb.String()
}

// dashCycle is one dashboard cycle: reads in seeded order with appends at
// the fixed ratio.
func dashCycle(rng *rand.Rand, app *salesAppender, vpct, cube []statement, hpct, hagg *statement) []op {
	var reads []*statement
	for _, set := range [][]statement{vpct, cube} {
		for i := range set {
			for n := 0; n < dashReadsPerStmt; n++ {
				reads = append(reads, &set[i])
			}
		}
	}
	reads = append(reads, hpct, hagg)
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	var out []op
	for i, st := range reads {
		out = append(out, op{st: st, sql: st.sql})
		if (i+1)%dashReadsPerAppend == 0 {
			out = append(out, op{sql: app.insert(rng, dashAppendRows)})
		}
	}
	return out
}
