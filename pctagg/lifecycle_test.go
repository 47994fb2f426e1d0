package pctagg

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/leakcheck"
)

// TestTraceSpansAllClosed is the trace invariant: every span in a finished
// trace has been Ended, on success, error, and cancellation paths alike. A
// zero-duration span is an early return that skipped End.
func TestTraceSpansAllClosed(t *testing.T) {
	cases := []struct {
		name    string
		prep    func(db *DB)
		ctx     func() context.Context
		sql     string
		wantErr bool
	}{
		{name: "standard", sql: "SELECT state, sum(salesAmt) FROM sales GROUP BY state"},
		{name: "vpct", sql: "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"},
		{name: "hpct-hash-pivot", sql: "SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state"},
		{
			name: "hpct-sql",
			prep: func(db *DB) { db.SetStrategies(Strategies{Hpct: HpctStrategy{CaseTerms: true}}) },
			sql:  "SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state",
		},
		// Runtime error mid-statement: ORDER BY a column that does not exist
		// fails after the scan has produced rows (the fixed sort-span path).
		{name: "sort-error", sql: "SELECT state FROM sales ORDER BY nosuch", wantErr: true},
		{
			name: "pre-cancelled",
			ctx: func() context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx
			},
			sql:     "SELECT state, sum(salesAmt) FROM sales GROUP BY state",
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := demoDB(t)
			db.SetParallelism(4)
			if tc.prep != nil {
				tc.prep(db)
			}
			ctx := context.Background()
			if tc.ctx != nil {
				ctx = tc.ctx()
			}
			_, root, err := db.QueryTracedCtx(ctx, tc.sql)
			if tc.wantErr != (err != nil) {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if root == nil {
				t.Fatal("no trace returned")
			}
			if un := root.Unclosed(); len(un) > 0 {
				names := make([]string, len(un))
				for i, s := range un {
					names[i] = s.Name
				}
				t.Errorf("unclosed spans: %v\n%s", names, root.Format())
			}
		})
	}
}

// TestQueryCtxCancellation: a cancelled context surfaces as the typed
// PCT200 error through the public Query path, and nothing leaks.
func TestQueryCtxCancellation(t *testing.T) {
	defer leakcheck.Check(t)()
	db := demoDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryCtx(ctx, "SELECT state, Vpct(salesAmt BY city) FROM sales GROUP BY state, city")
	if err == nil {
		t.Fatal("cancelled query succeeded")
	}
	var coded interface{ Code() string }
	if !errors.As(err, &coded) || coded.Code() != diag.CodeCancelled {
		t.Fatalf("err = %v, want code %s", err, diag.CodeCancelled)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("cancellation cause not preserved through the public API")
	}
}

// TestSetLimitsMaxPivotColumns: the pivot-width budget rejects a too-wide
// Hpct query at plan time with PCT204.
func TestSetLimitsMaxPivotColumns(t *testing.T) {
	db := demoDB(t)
	db.SetLimits(Limits{MaxPivotColumns: 2})
	_, err := db.Query("SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state")
	if err == nil {
		t.Fatal("4-city Hpct under MaxPivotColumns=2 succeeded")
	}
	var coded interface{ Code() string }
	if !errors.As(err, &coded) || coded.Code() != diag.CodePivotLimit {
		t.Fatalf("err = %v, want code %s", err, diag.CodePivotLimit)
	}
	// Within budget still works.
	db.SetLimits(Limits{MaxPivotColumns: 4})
	if _, err := db.Query("SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state"); err != nil {
		t.Fatalf("Hpct within pivot budget failed: %v", err)
	}
}

// TestRuntimeErrorsCounted: lifecycle errors land in the per-code
// query.errors.* counters like any other coded failure.
func TestRuntimeErrorsCounted(t *testing.T) {
	db := demoDB(t)
	before := strings.Count(db.MetricsJSON(), `"query.errors.`+diag.CodeCancelled+`"`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryCtx(ctx, "SELECT state FROM sales"); err == nil {
		t.Fatal("cancelled query succeeded")
	}
	if !strings.Contains(db.MetricsJSON(), `"query.errors.`+diag.CodeCancelled+`"`) {
		t.Fatalf("query.errors.%s not in metrics after cancelled query (before=%d)", diag.CodeCancelled, before)
	}
}

// TestSetLimitsRoundTrip pins the accessor pair.
func TestSetLimitsRoundTrip(t *testing.T) {
	db := demoDB(t)
	lim := Limits{MaxRows: 100, MaxGroups: 10, MaxPivotColumns: 3, MaxBytes: 1 << 20}
	db.SetLimits(lim)
	if got := db.Limits(); got != lim {
		t.Errorf("Limits() = %+v, want %+v", got, lim)
	}
}
