package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/value"
)

// newSalesPlanner loads the paper's Table 1 sales fact table plus a
// store/day table for horizontal examples.
func newSalesPlanner(t *testing.T) *Planner {
	t.Helper()
	eng := engine.New(storage.NewCatalog())
	mustExec(t, eng, `CREATE TABLE sales (RID INTEGER, state VARCHAR, city VARCHAR, salesAmt INTEGER)`)
	mustExec(t, eng, `INSERT INTO sales VALUES
		(1, 'CA', 'San Francisco', 13),
		(2, 'CA', 'San Francisco', 3),
		(3, 'CA', 'San Francisco', 67),
		(4, 'CA', 'Los Angeles', 23),
		(5, 'TX', 'Houston', 5),
		(6, 'TX', 'Houston', 35),
		(7, 'TX', 'Houston', 10),
		(8, 'TX', 'Houston', 14),
		(9, 'TX', 'Dallas', 53),
		(10, 'TX', 'Dallas', 32)`)
	mustExec(t, eng, `CREATE TABLE daily (store INTEGER, dweek VARCHAR, salesAmt INTEGER)`)
	// Store 2 trades all seven days; store 4 is closed on Monday (a missing
	// combination, like the paper's Table 3 example).
	mustExec(t, eng, `INSERT INTO daily VALUES
		(2,'Mo',7),(2,'Tu',6),(2,'We',8),(2,'Th',9),(2,'Fr',16),(2,'Sa',24),(2,'Su',30),
		(4,'Tu',9),(4,'We',9),(4,'Th',9),(4,'Fr',18),(4,'Sa',20),(4,'Su',35)`)
	return NewPlanner(eng)
}

func mustExec(t *testing.T, e *engine.Engine, sql string) *engine.Result {
	t.Helper()
	r, err := e.ExecSQL(sql)
	if err != nil {
		t.Fatalf("ExecSQL(%s): %v", sql, err)
	}
	return r
}

// runQuery plans and executes a query under opts.
func runQuery(t *testing.T, p *Planner, sql string, opts Options) *engine.Result {
	t.Helper()
	plan, err := p.PlanSQL(sql, opts)
	if err != nil {
		t.Fatalf("PlanSQL(%s): %v", sql, err)
	}
	res, err := p.Execute(plan)
	if err != nil {
		t.Fatalf("Execute(%s):\n%s\n%v", sql, plan.SQL(), err)
	}
	return res
}

// sameResults compares two results cell by cell with a float tolerance.
func sameResults(t *testing.T, label string, a, b *engine.Result) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: row counts differ: %d vs %d\n%v\nvs\n%v", label, len(a.Rows), len(b.Rows), a.Rows, b.Rows)
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			t.Fatalf("%s: row %d widths differ: %v vs %v", label, i, a.Rows[i], b.Rows[i])
		}
		for j := range a.Rows[i] {
			va, vb := a.Rows[i][j], b.Rows[i][j]
			if va.IsNull() != vb.IsNull() {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, j, va, vb)
			}
			if va.IsNull() {
				continue
			}
			fa, aok := va.AsFloat()
			fb, bok := vb.AsFloat()
			if aok && bok {
				if math.Abs(fa-fb) > 1e-9 {
					t.Fatalf("%s: row %d col %d: %v vs %v", label, i, j, va, vb)
				}
				continue
			}
			if value.Compare(va, vb) != 0 {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, j, va, vb)
			}
		}
	}
}

const vpctSales = "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"

func TestVpctPaperExample(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, vpctSales, DefaultOptions())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Table 2 of the paper (values before rounding to whole percent):
	want := []struct {
		state, city string
		pct         float64
	}{
		{"CA", "Los Angeles", 23.0 / 106},
		{"CA", "San Francisco", 83.0 / 106},
		{"TX", "Dallas", 85.0 / 149},
		{"TX", "Houston", 64.0 / 149},
	}
	for i, w := range want {
		r := res.Rows[i]
		if r[0].Str() != w.state || r[1].Str() != w.city {
			t.Errorf("row %d keys = %v", i, r)
		}
		if math.Abs(r[2].Float()-w.pct) > 1e-9 {
			t.Errorf("row %d pct = %v, want %v", i, r[2], w.pct)
		}
	}
	// The column is named after the measure, as in the paper's Table 2.
	if res.Columns[2] != "salesAmt" {
		t.Errorf("pct column name = %q", res.Columns[2])
	}
}

func TestVpctGroupSumsToOne(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, vpctSales, DefaultOptions())
	sums := map[string]float64{}
	for _, r := range res.Rows {
		sums[r[0].Str()] += r[2].Float()
	}
	for state, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("state %s percentages sum to %v", state, s)
		}
	}
}

func TestVpctAllStrategiesAgree(t *testing.T) {
	queries := []string{
		vpctSales,
		"SELECT state, Vpct(salesAmt) FROM sales GROUP BY state", // j = 0: global totals
		"SELECT state, city, Vpct(salesAmt BY city), sum(salesAmt), count(*) FROM sales GROUP BY state, city",
		"SELECT state, city, Vpct(salesAmt BY city), Vpct(salesAmt) FROM sales GROUP BY state, city",
	}
	for _, q := range queries {
		var base *engine.Result
		for _, fjFromF := range []bool{false, true} {
			for _, useUpdate := range []bool{false, true} {
				for _, idx := range []bool{false, true} {
					p := newSalesPlanner(t)
					opts := Options{Vpct: VpctOptions{FjFromF: fjFromF, UseUpdate: useUpdate, SubkeyIndexes: idx}}
					res := runQuery(t, p, q, opts)
					if base == nil {
						base = res
						continue
					}
					label := q
					sameResults(t, label, base, res)
				}
			}
		}
	}
}

func TestVpctGlobalTotals(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT state, Vpct(salesAmt) FROM sales GROUP BY state", DefaultOptions())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if math.Abs(res.Rows[0][1].Float()-106.0/255) > 1e-9 {
		t.Errorf("CA share = %v", res.Rows[0][1])
	}
	if math.Abs(res.Rows[0][1].Float()+res.Rows[1][1].Float()-1) > 1e-9 {
		t.Error("global shares must sum to 1")
	}
}

func TestVpctDivisionByZero(t *testing.T) {
	p := newSalesPlanner(t)
	mustExec(t, p.Eng, "INSERT INTO sales VALUES (11, 'NV', 'Reno', 5), (12, 'NV', 'Elko', -5)")
	res := runQuery(t, p, vpctSales, DefaultOptions())
	nulls := 0
	for _, r := range res.Rows {
		if r[0].Str() == "NV" {
			if !r[2].IsNull() {
				t.Errorf("NV pct = %v, want NULL (state total is zero)", r[2])
			}
			nulls++
		}
	}
	if nulls != 2 {
		t.Errorf("NV rows = %d", nulls)
	}
}

func TestVpctNullMeasureSkipped(t *testing.T) {
	// Vpct preserves sum() semantics: NULL measures are skipped.
	p := newSalesPlanner(t)
	mustExec(t, p.Eng, "INSERT INTO sales VALUES (13, 'CA', 'San Francisco', NULL)")
	res := runQuery(t, p, vpctSales, DefaultOptions())
	for _, r := range res.Rows {
		if r[0].Str() == "CA" && r[1].Str() == "San Francisco" {
			if math.Abs(r[2].Float()-83.0/106) > 1e-9 {
				t.Errorf("SF pct with NULL row = %v", r[2])
			}
		}
	}
}

func TestVpctWithWhere(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT state, city, Vpct(salesAmt BY city) FROM sales WHERE state = 'TX' GROUP BY state, city", DefaultOptions())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if math.Abs(res.Rows[0][2].Float()-85.0/149) > 1e-9 {
		t.Errorf("Dallas pct = %v", res.Rows[0][2])
	}
}

func TestVpctMissingRowsPost(t *testing.T) {
	p := newSalesPlanner(t)
	for _, useUpdate := range []bool{false, true} {
		opts := Options{Vpct: VpctOptions{MissingRows: MissingPost, UseUpdate: useUpdate, SubkeyIndexes: true}}
		res := runQuery(t, p, "SELECT store, dweek, Vpct(salesAmt BY dweek) FROM daily GROUP BY store, dweek", opts)
		// 2 stores × 7 days = 14 rows, including the missing (4, Mo) at 0%.
		if len(res.Rows) != 14 {
			t.Fatalf("useUpdate=%v rows = %d: %v", useUpdate, len(res.Rows), res.Rows)
		}
		found := false
		for _, r := range res.Rows {
			if r[0].Int() == 4 && r[1].Str() == "Mo" {
				found = true
				if r[2].IsNull() || r[2].Float() != 0 { // floateq:ok exact expected value
					t.Errorf("missing combination pct = %v, want 0", r[2])
				}
			}
		}
		if !found {
			t.Error("zero-filled row for (4, Mo) not present")
		}
	}
}

func TestVpctMissingRowsPre(t *testing.T) {
	p := newSalesPlanner(t)
	opts := Options{Vpct: VpctOptions{MissingRows: MissingPre, SubkeyIndexes: true}}
	res := runQuery(t, p, "SELECT store, dweek, Vpct(salesAmt BY dweek) FROM daily GROUP BY store, dweek", opts)
	if len(res.Rows) != 14 {
		t.Fatalf("rows = %d: %v", len(res.Rows), res.Rows)
	}
	// Pre-processing mutates F: the zero-measure row persists.
	cnt := mustExec(t, p.Eng, "SELECT count(*) FROM daily")
	if cnt.Rows[0][0].Int() != 14 {
		t.Errorf("daily rows after pre-processing = %v", cnt.Rows[0][0])
	}
}

const hpctDaily = "SELECT store, Hpct(salesAmt BY dweek) FROM daily GROUP BY store"

func TestHpctPaperShape(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, hpctDaily, DefaultOptions())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Columns: store + 7 day columns (ordered by value: Fr Mo Sa Su Th Tu We).
	if len(res.Columns) != 8 {
		t.Fatalf("columns = %v", res.Columns)
	}
	// Each row's percentages sum to 1.
	for _, r := range res.Rows {
		s := 0.0
		for _, v := range r[1:] {
			if !v.IsNull() {
				s += v.Float()
			}
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("store %v percentages sum to %v", r[0], s)
		}
	}
	// Store 4's Monday column is 0% — "observe the 0% for store 4 on
	// Monday" (the paper's Table 3).
	moIdx := -1
	for i, c := range res.Columns {
		if c == "Mo" {
			moIdx = i
		}
	}
	if moIdx < 0 {
		t.Fatalf("no Mo column in %v", res.Columns)
	}
	for _, r := range res.Rows {
		if r[0].Int() == 4 && r[moIdx].Float() != 0 { // floateq:ok exact expected value
			t.Errorf("store 4 Monday = %v, want 0", r[moIdx])
		}
	}
}

func TestHpctStrategiesAgree(t *testing.T) {
	queries := []string{
		hpctDaily,
		"SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store",
		"SELECT Hpct(salesAmt BY dweek) FROM daily", // no GROUP BY: one row
	}
	for _, q := range queries {
		var base *engine.Result
		for _, opt := range []HpctOptions{
			{},
			{CaseTerms: true},
			{FromFV: true, Vpct: VpctOptions{SubkeyIndexes: true}},
			{FromFV: true, Vpct: VpctOptions{FjFromF: true}},
			{FromFV: true, Vpct: VpctOptions{SubkeyIndexes: true}, CaseTerms: true},
		} {
			p := newSalesPlanner(t)
			res := runQuery(t, p, q, Options{Hpct: opt})
			if base == nil {
				base = res
				continue
			}
			sameResults(t, q, base, res)
		}
	}
}

// exactDiff compares two results exactly — columns, rows, values and value
// kinds — and describes the first difference, or returns "".
func exactDiff(a, b *engine.Result) string {
	if fmt.Sprint(a.Columns) != fmt.Sprint(b.Columns) {
		return fmt.Sprintf("columns %v vs %v", a.Columns, b.Columns)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d rows vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			va, vb := a.Rows[i][j], b.Rows[i][j]
			if va.IsNull() != vb.IsNull() || !va.IsNull() && (va.Kind() != vb.Kind() || value.Compare(va, vb) != 0) {
				return fmt.Sprintf("row %d col %s: %v (%v) vs %v (%v)", i, a.Columns[j], va, va.Kind(), vb, vb.Kind())
			}
		}
	}
	return ""
}

// kernelsAgree runs q under opts — the hash pivot — and under caseOpts, the
// same strategy with literal CASE terms, at P ∈ {1, 2, 8} with batch
// execution off and on. Every run must equal CASE at P=1 without batch
// exactly.
func kernelsAgree(t *testing.T, p *Planner, q string, opts, caseOpts Options) {
	t.Helper()
	defer p.Eng.SetBatch(p.Eng.BatchEnabled())
	var ref *engine.Result
	for _, batch := range []bool{false, true} {
		p.Eng.SetBatch(batch)
		for _, par := range []int{1, 2, 8} {
			for ki, o := range []Options{caseOpts, opts} {
				o.Parallelism = par
				res := runQuery(t, p, q, o)
				if ref == nil {
					ref = res
					continue
				}
				if diff := exactDiff(ref, res); diff != "" {
					t.Fatalf("%s: %s at P=%d batch=%v differs from CASE at P=1: %s",
						q, []string{"CASE", "hash pivot"}[ki], par, batch, diff)
				}
			}
		}
	}
}

// narrowPlanner is newSalesPlanner with MaxColumns 4: the daily Hpct and
// Hagg layouts (store, seven days, extras) need three or more partitions.
func narrowPlanner(t *testing.T) *Planner {
	p := newSalesPlanner(t)
	p.MaxColumns = 4
	return p
}

func TestHpctHashPivotAgrees(t *testing.T) {
	direct, fromFV := HpctOptions{}, HpctOptions{FromFV: true, Vpct: VpctOptions{SubkeyIndexes: true}}
	cases := []struct {
		load func(*testing.T) *Planner
		q    string
		opts HpctOptions
	}{
		{newSalesPlanner, hpctDaily, direct},
		{newSalesPlanner, "SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt), avg(salesAmt), count(DISTINCT salesAmt), count(*), min(salesAmt) FROM daily GROUP BY store", direct},
		{newSalesPlanner, "SELECT state, Hpct(salesAmt BY city), Hpct(1 BY city) FROM sales GROUP BY state", direct},
		{newSalesPlanner, "SELECT Hpct(salesAmt BY state, city), count(*) FROM sales", direct},
		{newSalesPlanner, "SELECT store, Hpct(salesAmt BY dweek) FROM daily WHERE salesAmt > 7 GROUP BY store", direct},
		{narrowPlanner, "SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store", direct},
		{newSalesPlanner, "SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt), avg(salesAmt), count(*), max(salesAmt) FROM daily GROUP BY store", fromFV},
		{newSalesPlanner, "SELECT Hpct(salesAmt BY city), count(salesAmt) FROM sales", fromFV},
		{narrowPlanner, "SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store", fromFV},
		{newSalesPlanner, "SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt), GROUPING(store) FROM daily GROUP BY ROLLUP(store)", direct},
		{newNullMeasurePlanner, "SELECT g, Hpct(a BY d), count(a) FROM f GROUP BY g", direct},
		{newNullMeasurePlanner, "SELECT g, Hpct(a BY d), count(a) FROM f GROUP BY g", fromFV},
	}
	for _, c := range cases {
		caseOpts := c.opts
		caseOpts.CaseTerms = true
		kernelsAgree(t, c.load(t), c.q, Options{Hpct: c.opts}, Options{Hpct: caseOpts})
	}

	// Random tables: zero and NULL totals, NULL dimensions, CUBE nodes.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2; trial++ {
		p := randPlanner(t, rng, 200+rng.Intn(200))
		for _, q := range []string{
			"SELECT d1, Hpct(a BY d2, d3), sum(a), count(DISTINCT d3) FROM f GROUP BY d1",
			"SELECT d1, d3, Hpct(a BY d2), count(*) FROM f GROUP BY CUBE(d1, d3)",
		} {
			kernelsAgree(t, p, q, Options{}, Options{Hpct: HpctOptions{CaseTerms: true}})
		}
		kernelsAgree(t, p, "SELECT d1, Hpct(a BY d2), avg(a) FROM f GROUP BY d1",
			Options{Hpct: fromFV}, Options{Hpct: HpctOptions{FromFV: true, Vpct: VpctOptions{SubkeyIndexes: true}, CaseTerms: true}})
	}
}

// TestPivotLateCombination appends a row with a new BY value between
// planning and execution: the planned layout has no column for it, so CASE
// terms count the row in sum(A) and every extra aggregate but in no cell.
// The hash pivot must return the identical rows.
func TestPivotLateCombination(t *testing.T) {
	queries := []struct {
		sql string
		// last is store 2's last extra, which counts the late row.
		last int64
	}{
		{"SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt), count(*) FROM daily GROUP BY store", 8},
		{"SELECT store, sum(salesAmt BY dweek), count(salesAmt BY dweek), max(salesAmt) FROM daily GROUP BY store", 50},
	}
	caseTerms := Options{Hpct: HpctOptions{CaseTerms: true}, Hagg: HaggOptions{CaseTerms: true}}
	for _, q := range queries {
		var results [2]*engine.Result
		for ki, opts := range []Options{{}, caseTerms} {
			p := newSalesPlanner(t)
			plan, err := p.PlanSQL(q.sql, opts)
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, p.Eng, "INSERT INTO daily VALUES (2, 'Xx', 50)")
			if results[ki], err = p.Execute(plan); err != nil {
				t.Fatalf("%s: %v", q.sql, err)
			}
		}
		if diff := exactDiff(results[1], results[0]); diff != "" {
			t.Fatalf("%s: hash pivot differs from CASE terms: %s", q.sql, diff)
		}
		if row := results[0].Rows[0]; row[len(row)-1].Int() != q.last {
			t.Errorf("%s: store 2's last extra = %v, want %d", q.sql, row[len(row)-1], q.last)
		}
	}
}

func TestHpctWithTotalColumn(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store", DefaultOptions())
	for _, r := range res.Rows {
		total := r[len(r)-1]
		switch r[0].Int() {
		case 2:
			if total.Int() != 100 {
				t.Errorf("store 2 total = %v", total)
			}
		case 4:
			if total.Int() != 100 {
				t.Errorf("store 4 total = %v", total)
			}
		}
	}
}

func TestHpctZeroTotalGroup(t *testing.T) {
	p := newSalesPlanner(t)
	mustExec(t, p.Eng, "INSERT INTO daily VALUES (9, 'Mo', 5), (9, 'Tu', -5)")
	res := runQuery(t, p, hpctDaily, DefaultOptions())
	for _, r := range res.Rows {
		if r[0].Int() == 9 {
			for _, v := range r[1:] {
				if !v.IsNull() {
					t.Errorf("zero-total group value = %v, want NULL", v)
				}
			}
		}
	}
}

func TestHpctPartitioning(t *testing.T) {
	p := newSalesPlanner(t)
	p.MaxColumns = 4 // store + 3 value columns per partition
	plan, err := p.PlanSQL(hpctDaily, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.ResultTables) < 2 {
		t.Fatalf("expected partitions, got %v", plan.ResultTables)
	}
	res, err := p.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	p2 := newSalesPlanner(t)
	base := runQuery(t, p2, hpctDaily, DefaultOptions())
	sameResults(t, "partitioned", base, res)
}

func TestHaggFourStrategiesAgree(t *testing.T) {
	queries := []string{
		"SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store",
		"SELECT store, count(salesAmt BY dweek) FROM daily GROUP BY store",
		"SELECT store, max(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store",
		"SELECT store, min(salesAmt BY dweek) FROM daily GROUP BY store",
		"SELECT store, avg(salesAmt BY dweek) FROM daily GROUP BY store",
		"SELECT sum(salesAmt BY dweek) FROM daily", // j = 0
	}
	for _, q := range queries {
		var base *engine.Result
		for _, opt := range []HaggOptions{
			{Method: HaggCASE},
			{Method: HaggCASE, FromFV: true},
			{Method: HaggCASE, CaseTerms: true},
			{Method: HaggCASE, FromFV: true, CaseTerms: true},
			{Method: HaggSPJ},
			{Method: HaggSPJ, FromFV: true},
		} {
			p := newSalesPlanner(t)
			res := runQuery(t, p, q, Options{Hagg: opt})
			if base == nil {
				base = res
				continue
			}
			sameResults(t, q, base, res)
		}
	}
}

func TestHaggMissingCombinationIsNull(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store", DefaultOptions())
	moIdx := -1
	for i, c := range res.Columns {
		if c == "Mo" {
			moIdx = i
		}
	}
	for _, r := range res.Rows {
		if r[0].Int() == 4 && !r[moIdx].IsNull() {
			t.Errorf("store 4 Monday sum = %v, want NULL", r[moIdx])
		}
	}
}

func TestHaggDefaultZero(t *testing.T) {
	// The companion paper's binary-coding idiom: max(1 BY d DEFAULT 0).
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT store, max(1 BY dweek DEFAULT 0) FROM daily GROUP BY store", DefaultOptions())
	for _, r := range res.Rows {
		for i, v := range r[1:] {
			if v.IsNull() {
				t.Errorf("store %v col %d NULL despite DEFAULT 0", r[0], i)
			}
			if n := v.Int(); n != 0 && n != 1 {
				t.Errorf("binary flag = %v", v)
			}
		}
		if r[0].Int() == 4 {
			// Monday flag must be exactly 0.
			moIdx := -1
			for i, c := range res.Columns {
				if c == "Mo" {
					moIdx = i
				}
			}
			if r[moIdx].Int() != 0 {
				t.Errorf("store 4 Monday flag = %v", r[moIdx])
			}
		}
	}
}

func TestHaggCountDistinctDirect(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT store, count(DISTINCT salesAmt BY dweek) FROM daily GROUP BY store", DefaultOptions())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// And the from-FV strategy must refuse.
	p2 := newSalesPlanner(t)
	_, err := p2.PlanSQL("SELECT store, count(DISTINCT salesAmt BY dweek) FROM daily GROUP BY store",
		Options{Hagg: HaggOptions{Method: HaggCASE, FromFV: true}})
	if err == nil || !strings.Contains(err.Error(), "DISTINCT") {
		t.Errorf("err = %v", err)
	}
}

// newNullMeasurePlanner loads a fact table in which one (group,
// combination) holds only NULL measures: g=1 has two d=2 rows with NULL a.
// g=2 has no d=2 row at all.
func newNullMeasurePlanner(t *testing.T) *Planner {
	t.Helper()
	eng := engine.New(storage.NewCatalog())
	mustExec(t, eng, `CREATE TABLE f (g INTEGER, d INTEGER, a INTEGER)`)
	mustExec(t, eng, `INSERT INTO f VALUES (1, 1, 5), (1, 2, NULL), (1, 2, NULL), (2, 1, 7), (2, 3, 4)`)
	return NewPlanner(eng)
}

func TestHaggHashPivotAgrees(t *testing.T) {
	direct, fromFV := HaggOptions{Method: HaggCASE}, HaggOptions{Method: HaggCASE, FromFV: true}
	cases := []struct {
		load func(*testing.T) *Planner
		q    string
		opts HaggOptions
	}{
		// Store 4 has no Monday: an absent combination under sum and count.
		{newSalesPlanner, "SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store", direct},
		{newSalesPlanner, "SELECT store, count(salesAmt BY dweek), count(*) FROM daily GROUP BY store", direct},
		{newSalesPlanner, "SELECT store, max(1 BY dweek DEFAULT 0) FROM daily GROUP BY store", direct},
		{newSalesPlanner, "SELECT state, count(DISTINCT salesAmt BY city), sum(salesAmt), avg(salesAmt), count(DISTINCT city) FROM sales GROUP BY state", direct},
		{newSalesPlanner, "SELECT state, sum(salesAmt BY city), avg(salesAmt BY city), min(RID BY city), sum(salesAmt) FROM sales GROUP BY state", direct},
		{newSalesPlanner, "SELECT sum(salesAmt BY state, city) FROM sales WHERE salesAmt > 10", direct},
		{narrowPlanner, "SELECT store, sum(salesAmt BY dweek), count(*) FROM daily GROUP BY store", direct},
		{newSalesPlanner, "SELECT store, sum(salesAmt BY dweek), avg(salesAmt BY dweek), min(salesAmt BY dweek), count(salesAmt BY dweek), sum(salesAmt), avg(salesAmt) FROM daily GROUP BY store", fromFV},
		{newSalesPlanner, "SELECT sum(salesAmt BY city), max(RID BY state DEFAULT 0), count(*) FROM sales", fromFV},
		{narrowPlanner, "SELECT store, count(salesAmt BY dweek), max(salesAmt) FROM daily GROUP BY store", fromFV},
		{newNullMeasurePlanner, "SELECT g, count(a BY d), sum(a BY d), count(DISTINCT a BY d), avg(a) FROM f GROUP BY g", direct},
		{newNullMeasurePlanner, "SELECT g, count(a BY d), sum(a BY d), avg(a BY d), avg(a) FROM f GROUP BY g", fromFV},
	}
	for _, c := range cases {
		caseOpts := c.opts
		caseOpts.CaseTerms = true
		kernelsAgree(t, c.load(t), c.q, Options{Hagg: c.opts}, Options{Hagg: caseOpts})
	}

	// A combination whose rows all have NULL measures counts 0, as CASE and
	// SPJ give; a combination without rows stays NULL.
	q := "SELECT g, count(a BY d) FROM f GROUP BY g"
	spj := runQuery(t, newNullMeasurePlanner(t), q, Options{Hagg: HaggOptions{Method: HaggSPJ}})
	piv := runQuery(t, newNullMeasurePlanner(t), q, DefaultOptions())
	sameResults(t, q+" (SPJ)", spj, piv)
	want := [][]string{{"1", "1", "0", "NULL"}, {"2", "1", "NULL", "1"}}
	for i, row := range piv.Rows {
		for j, v := range row {
			if i < len(want) && v.String() != want[i][j] {
				t.Errorf("%s: row %d col %s = %v, want %s", q, i, piv.Columns[j], v, want[i][j])
			}
		}
	}
	if len(piv.Rows) != len(want) {
		t.Errorf("%s: %d rows, want %d", q, len(piv.Rows), len(want))
	}
}

func TestHaggMultipleTerms(t *testing.T) {
	// The companion paper's flagship query shape: several horizontal terms
	// plus a plain total.
	p := newSalesPlanner(t)
	q := "SELECT store, sum(salesAmt BY dweek), count(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store"
	res := runQuery(t, p, q, DefaultOptions())
	if len(res.Columns) != 1+7+7+1 {
		t.Fatalf("columns = %v", res.Columns)
	}
	p2 := newSalesPlanner(t)
	spj := runQuery(t, p2, q, Options{Hagg: HaggOptions{Method: HaggSPJ}})
	sameResults(t, q, res, spj)
}

func TestOLAPEquivalentMatchesVpct(t *testing.T) {
	p := newSalesPlanner(t)
	base := runQuery(t, p, vpctSales, DefaultOptions())
	sql, err := p.PlanSQL(vpctSales, DefaultOptions())
	_ = sql
	olap, err2 := func() (string, error) {
		stmt, err := parseSelect(vpctSales)
		if err != nil {
			return "", err
		}
		return p.OLAPEquivalent(stmt)
	}()
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	res := mustExec(t, p.Eng, olap)
	sameResults(t, "olap", base, res)
}

func TestOLAPEquivalentMatchesHpctNumbers(t *testing.T) {
	p := newSalesPlanner(t)
	stmt, err := parseSelect(hpctDaily)
	if err != nil {
		t.Fatal(err)
	}
	olap, err := p.OLAPEquivalent(stmt)
	if err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, p.Eng, olap)
	// Vertical form: 13 rows (store 4 has no Monday row).
	if len(res.Rows) != 13 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Row sums per store reach 1.
	sums := map[int64]float64{}
	for _, r := range res.Rows {
		sums[r[0].Int()] += r[2].Float()
	}
	for store, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("store %d OLAP percentages sum to %v", store, s)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		sql  string
		want QueryClass
	}{
		{"SELECT a, sum(b) FROM t GROUP BY a", ClassStandard},
		{vpctSales, ClassVertical},
		{hpctDaily, ClassHorizontalPct},
		{"SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store", ClassHorizontalAgg},
	}
	for _, c := range cases {
		stmt, err := parseSelect(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Classify(stmt)
		if err != nil || got != c.want {
			t.Errorf("Classify(%s) = %v, %v; want %v", c.sql, got, err, c.want)
		}
	}
	// Mixing is rejected.
	stmt, _ := parseSelect("SELECT state, Vpct(a BY city), Hpct(a BY city) FROM t GROUP BY state, city")
	if _, err := Classify(stmt); err == nil {
		t.Error("mixed Vpct/Hpct must be rejected")
	}
	if ClassVertical.String() == "" || ClassStandard.String() == "" {
		t.Error("class names empty")
	}
}

func TestValidationErrors(t *testing.T) {
	p := newSalesPlanner(t)
	cases := []struct {
		sql, frag string
	}{
		{"SELECT Vpct(salesAmt BY city) FROM sales", "GROUP BY"},
		{"SELECT state, Vpct(salesAmt BY city) FROM sales GROUP BY state", "GROUP BY columns"},
		{"SELECT state, city, Vpct(salesAmt BY city, state) FROM sales GROUP BY state, city", "proper subset"},
		{"SELECT store, Hpct(salesAmt BY store) FROM daily GROUP BY store", "disjoint"},
		{"SELECT store, Hpct(salesAmt BY bogus) FROM daily GROUP BY store", "not a column"},
		{"SELECT store, sum(salesAmt BY dweek, dweek) FROM daily GROUP BY store", "duplicate BY"},
		{"SELECT bogus, Vpct(salesAmt BY city) FROM sales GROUP BY state, city", "GROUP BY"},
		{"SELECT state, city, Vpct(bogus BY city) FROM sales GROUP BY state, city", "unknown column"},
		{"SELECT state, city, Vpct(salesAmt BY city) + 1 FROM sales GROUP BY state, city", "top-level"},
		{"SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city HAVING sum(salesAmt) > 0", "HAVING"},
		{"SELECT DISTINCT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city", "DISTINCT"},
		{"SELECT s.state, Vpct(s.salesAmt BY city) FROM sales s, daily d GROUP BY state, city", "single table"},
	}
	for _, c := range cases {
		_, err := p.PlanSQL(c.sql, DefaultOptions())
		if err == nil {
			t.Errorf("PlanSQL(%s): expected error containing %q", c.sql, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("PlanSQL(%s): error %q lacks %q", c.sql, err, c.frag)
		}
	}
}

func TestPlanSQLRendering(t *testing.T) {
	p := newSalesPlanner(t)
	plan, err := p.PlanSQL(vpctSales, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text := plan.SQL()
	for _, frag := range []string{"CREATE TABLE", "GROUP BY", "CASE WHEN", "INSERT INTO", "CREATE INDEX"} {
		if !strings.Contains(text, frag) {
			t.Errorf("plan SQL lacks %q:\n%s", frag, text)
		}
	}
	if plan.Class != ClassVertical {
		t.Errorf("class = %v", plan.Class)
	}
	// The UPDATE variant emits an UPDATE, not a third INSERT.
	plan2, err := p.PlanSQL(vpctSales, Options{Vpct: VpctOptions{UseUpdate: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan2.SQL(), "UPDATE") {
		t.Errorf("update-variant plan lacks UPDATE:\n%s", plan2.SQL())
	}
}

func TestExecuteCleansUpTemporaries(t *testing.T) {
	p := newSalesPlanner(t)
	before := len(p.Eng.Catalog().Names())
	plan, err := p.PlanSQL(vpctSales, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(plan); err != nil {
		t.Fatal(err)
	}
	after := len(p.Eng.Catalog().Names())
	if after != before {
		t.Errorf("temporary tables leaked: %v", p.Eng.Catalog().Names())
	}
}

func TestStandardQueryPassThrough(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT state, sum(salesAmt) FROM sales GROUP BY state ORDER BY state", DefaultOptions())
	if len(res.Rows) != 2 || res.Rows[0][1].Int() != 106 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestPlanRespectsOrderByAndLimit(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city ORDER BY 3 DESC LIMIT 2", DefaultOptions())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][2].Float() < res.Rows[1][2].Float() {
		t.Error("ORDER BY 3 DESC not applied")
	}
}

func TestVpctRowCountPercentages(t *testing.T) {
	// The paper's Vpct(1) idiom: row-count percentages.
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT state, city, Vpct(1 BY city) FROM sales GROUP BY state, city", DefaultOptions())
	want := map[string]float64{
		"CA|Los Angeles": 1.0 / 4, "CA|San Francisco": 3.0 / 4,
		"TX|Dallas": 2.0 / 6, "TX|Houston": 4.0 / 6,
	}
	for _, r := range res.Rows {
		key := r[0].Str() + "|" + r[1].Str()
		if math.Abs(r[2].Float()-want[key]) > 1e-9 {
			t.Errorf("%s = %v, want %v", key, r[2], want[key])
		}
	}
}

func TestHorizontalStrategiesAgreeWithWhere(t *testing.T) {
	// A WHERE clause must flow into the feedback query, the aggregation
	// scans, and the pre-aggregates alike — under every strategy.
	queries := []struct {
		sql  string
		opts []Options
	}{
		{"SELECT store, Hpct(salesAmt BY dweek) FROM daily WHERE salesAmt > 7 GROUP BY store",
			[]Options{{}, {Hpct: HpctOptions{FromFV: true}}, {Hpct: HpctOptions{CaseTerms: true}},
				{Hpct: HpctOptions{FromFV: true, CaseTerms: true}}}},
		{"SELECT store, sum(salesAmt BY dweek) FROM daily WHERE salesAmt > 7 GROUP BY store",
			[]Options{
				{Hagg: HaggOptions{Method: HaggCASE}},
				{Hagg: HaggOptions{Method: HaggCASE, CaseTerms: true}},
				{Hagg: HaggOptions{Method: HaggCASE, FromFV: true, CaseTerms: true}},
				{Hagg: HaggOptions{Method: HaggCASE, FromFV: true}},
				{Hagg: HaggOptions{Method: HaggSPJ}},
				{Hagg: HaggOptions{Method: HaggSPJ, FromFV: true}},
			}},
	}
	for _, q := range queries {
		var base *engine.Result
		for si, opts := range q.opts {
			p := newSalesPlanner(t)
			res := runQuery(t, p, q.sql, opts)
			if base == nil {
				base = res
				continue
			}
			sameResults(t, fmt.Sprintf("%s strategy %d", q.sql, si), base, res)
		}
		// The filter genuinely restricts the result: columns for days whose
		// only sales are ≤ 7 must be absent from the layout.
		for _, c := range base.Columns {
			if c == "Tu" && strings.Contains(q.sql, "Hpct") {
				// store 2 Tu=6, store 4 Tu=9: Tu survives via store 4.
				break
			}
		}
	}
}

func TestVpctStrategiesAgreeWithWhere(t *testing.T) {
	q := "SELECT store, dweek, Vpct(salesAmt BY dweek) FROM daily WHERE dweek <> 'Su' GROUP BY store, dweek"
	var base *engine.Result
	for mask := 0; mask < 4; mask++ {
		p := newSalesPlanner(t)
		opts := Options{Vpct: VpctOptions{FjFromF: mask&1 != 0, UseUpdate: mask&2 != 0, SubkeyIndexes: true}}
		res := runQuery(t, p, q, opts)
		if base == nil {
			base = res
			continue
		}
		sameResults(t, q, base, res)
	}
	// Six days per store, percentages re-normalized over the filtered rows.
	if len(base.Rows) != 11 { // store 2: 6 days, store 4: 5 days
		t.Fatalf("rows = %d", len(base.Rows))
	}
	sums := map[int64]float64{}
	for _, r := range base.Rows {
		sums[r[0].Int()] += r[2].Float()
	}
	for s, v := range sums {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("store %d filtered percentages sum to %v", s, v)
		}
	}
}
