package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden generated-SQL file")

// TestGeneratedSQLGolden pins the exact SQL text the code generator emits
// for the flagship query shapes. Codegen regressions — wrong join
// conditions, lost CASE guards, reordered steps — show up as a readable
// text diff. Regenerate after intentional changes with:
//
//	go test ./internal/core/ -run Golden -update
func TestGeneratedSQLGolden(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		opts Options
	}{
		{"vpct_best", vpctSales, DefaultOptions()},
		{"vpct_update", vpctSales,
			Options{Vpct: VpctOptions{UseUpdate: true, SubkeyIndexes: true}}},
		{"vpct_fj_from_f", vpctSales,
			Options{Vpct: VpctOptions{FjFromF: true}}},
		{"vpct_missing_post", "SELECT store, dweek, Vpct(salesAmt BY dweek) FROM daily GROUP BY store, dweek",
			Options{Vpct: VpctOptions{SubkeyIndexes: true, MissingRows: MissingPost}}},
		{"hpct_direct", hpctDaily, Options{Hpct: HpctOptions{CaseTerms: true}}},
		{"hpct_from_fv", hpctDaily,
			Options{Hpct: HpctOptions{FromFV: true, Vpct: VpctOptions{SubkeyIndexes: true}, CaseTerms: true}}},
		{"hagg_case", "SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store",
			Options{Hagg: HaggOptions{CaseTerms: true}}},
		{"hagg_spj", "SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store",
			Options{Hagg: HaggOptions{Method: HaggSPJ}}},
	}

	var sb strings.Builder
	for _, c := range cases {
		// A fresh planner per case keeps temp numbering deterministic.
		p := newSalesPlanner(t)
		plan, err := p.PlanSQL(c.sql, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sb.WriteString("===== " + c.name + " =====\n")
		sb.WriteString("-- query: " + c.sql + "\n")
		sb.WriteString(plan.SQL())
		sb.WriteString("\n")
		p.CleanupPlan(plan)
	}
	got := sb.String()

	path := filepath.Join("testdata", "generated_sql.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("generated SQL diverges from golden at line %d:\n  got:  %s\n  want: %s\n(run with -update if intentional)", i+1, g, w)
			}
		}
		t.Fatal("generated SQL diverges from golden (length mismatch)")
	}
}
