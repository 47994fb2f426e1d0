package difftest

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/leakcheck"
	"repro/internal/storage"
	"repro/internal/value"
)

// limitsPlanner loads f(g, d, a) with n rows in groups groups over four BY
// values; every 13th measure is NULL.
func limitsPlanner(t *testing.T, n, groups int) *core.Planner {
	t.Helper()
	cat := storage.NewCatalog()
	tab, err := cat.Create("f", storage.Schema{
		{Name: "g", Type: storage.TypeInt},
		{Name: "d", Type: storage.TypeInt},
		{Name: "a", Type: storage.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a := value.NewInt(int64(i % 100))
		if i%13 == 0 {
			a = value.Null
		}
		if _, err := tab.AppendRow([]value.Value{value.NewInt(int64(i % groups)), value.NewInt(int64(i % 4)), a}); err != nil {
			t.Fatal(err)
		}
	}
	return core.NewPlanner(engine.New(cat))
}

// limitOutcome is one run's result: its rows, or its error with the code
// and message of the typed error inside it. The wrapping around that error
// names the parallelism and per-run temp tables, so it is not compared.
type limitOutcome struct {
	res  *engine.Result
	err  error
	code string
	msg  string
}

func (o limitOutcome) String() string {
	if o.err != nil {
		return fmt.Sprintf("error [%s] %s", o.code, o.msg)
	}
	return fmt.Sprintf("%d rows", len(o.res.Rows))
}

// TestDifferentialLimits holds the governor to one charging rule across
// kernels and worker counts: each folded input row is charged to MaxRows,
// and its estimated bytes to MaxBytes, exactly once; MaxGroups counts
// distinct groups. Each limit is set just below and just above what the
// fold needs, and every (P, batch) cell must return the identical error
// code and message, or identical rows. The queries cover the batch kernel,
// the scalar expression kernel, and Hpct and Hagg (with an extra aggregate)
// under CASE terms and under the hash pivot. The
// planner's feedback query runs at plan time, outside Options.Limits.
func TestDifferentialLimits(t *testing.T) {
	defer leakcheck.Check(t)()
	const n, groups = 5000, 7
	const rowBytes = 3 * 24 // three INTEGER columns, as the governor estimates them
	p := limitsPlanner(t, n, groups)
	defer p.Eng.SetBatch(true)

	queries := []struct {
		sql  string
		opts core.Options
	}{
		{"SELECT g, sum(a) FROM f GROUP BY g", core.DefaultOptions()},
		{"SELECT g, sum(a + 1) FROM f GROUP BY g", core.DefaultOptions()},
		{"SELECT g, Hpct(a BY d) FROM f GROUP BY g", core.Options{Hpct: core.HpctOptions{CaseTerms: true}}},
		{"SELECT g, Hpct(a BY d) FROM f GROUP BY g", core.DefaultOptions()},
		{"SELECT g, sum(a BY d), sum(a) FROM f GROUP BY g", core.Options{Hagg: core.HaggOptions{CaseTerms: true}}},
		{"SELECT g, sum(a BY d), sum(a) FROM f GROUP BY g", core.DefaultOptions()},
	}
	limits := []struct {
		name  string
		lim   engine.Limits
		fails bool
	}{
		{"MaxRows below", engine.Limits{MaxRows: n - 1}, true},
		{"MaxRows above", engine.Limits{MaxRows: n + 64}, false},
		{"MaxBytes below", engine.Limits{MaxBytes: n*rowBytes - 1}, true},
		{"MaxBytes above", engine.Limits{MaxBytes: n*rowBytes + 4096}, false},
		{"MaxGroups below", engine.Limits{MaxGroups: groups - 1}, true},
		{"MaxGroups above", engine.Limits{MaxGroups: groups}, false},
	}
	for qi, q := range queries {
		for _, l := range limits {
			var ref limitOutcome
			refCell := ""
			for _, par := range Parallelisms {
				for _, batch := range []bool{false, true} {
					cell := fmt.Sprintf("query %d %s / %s / P=%d batch=%v", qi, q.sql, l.name, par, batch)
					p.Eng.SetBatch(batch)
					opts := q.opts
					opts.Limits = l.lim
					var got limitOutcome
					got.res, got.err = Run(p, q.sql, opts, par)
					var coded interface {
						error
						Code() string
					}
					if errors.As(got.err, &coded) {
						got.code, got.msg = coded.Code(), coded.Error()
					}
					if got.err != nil && got.code == "" {
						t.Errorf("%s: untyped error %v", cell, got.err)
					}
					if (got.err != nil) != l.fails {
						t.Errorf("%s: got %v, want failure=%v", cell, got, l.fails)
					}
					if refCell == "" {
						ref, refCell = got, cell
						continue
					}
					switch {
					case (ref.err == nil) != (got.err == nil):
						t.Errorf("%s: %v, but %s: %v", cell, got, refCell, ref)
					case got.err != nil:
						if got.code != ref.code || got.msg != ref.msg {
							t.Errorf("%s: %v, but %s: %v", cell, got, refCell, ref)
						}
					default:
						if diff := Equal(ref.res, got.res); diff != "" {
							t.Errorf("%s diverges from %s: %s", cell, refCell, diff)
						}
					}
				}
			}
		}
	}
}
