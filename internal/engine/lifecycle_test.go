package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/expr"
	"repro/internal/leakcheck"
	"repro/internal/storage"
	"repro/internal/value"
)

// countdownCtx is a deterministic cancellation source: Err returns nil for
// the first `after` calls, context.Canceled afterwards. It makes
// cancellation latency measurable in governor strides instead of wall time.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
	after int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// bigGroupTable builds an n-row table with a small group column.
func bigGroupTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	tab, err := storage.NewTable("big", storage.Schema{
		{Name: "g", Type: storage.TypeInt},
		{Name: "v", Type: storage.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]value.Value, 2)
	for i := 0; i < n; i++ {
		row[0] = value.NewInt(int64(i % 8))
		row[1] = value.NewInt(int64(i))
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestCancelBoundedRows is the cancellation-latency contract: a cancelled
// 1M-row aggregation must stop within a bounded number of rows after the
// cancel, not fold to completion. The countdown context cancels after a
// fixed number of governor checks; the scanned counter then bounds how far
// the scan ran past it in units of govStride.
func TestCancelBoundedRows(t *testing.T) {
	const nRows = 1_000_000
	const after = 20
	tab := bigGroupTable(t, nRows)

	ctx := &countdownCtx{Context: context.Background(), after: after}
	gov := newGovernor(ctx, Limits{})
	scan := newTableScan(tab, "big")
	scan.gov = gov

	keyExpr, err := expr.Bind(expr.QCol("", "g"), expr.SchemaResolver([]string{"g", "v"}))
	if err != nil {
		t.Fatal(err)
	}
	argExpr, err := expr.Bind(expr.QCol("", "v"), expr.SchemaResolver([]string{"g", "v"}))
	if err != nil {
		t.Fatal(err)
	}
	specs := []aggSpec{{call: &expr.AggCall{Fn: expr.AggSum, Arg: expr.QCol("", "v")}, arg: argExpr}}

	_, err = hashAggregate(scan, []expr.Expr{keyExpr}, specs, execCtx{par: 1, gov: gov})
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CancelledError", err)
	}
	if ce.Code() != diag.CodeCancelled {
		t.Errorf("code = %s, want %s", ce.Code(), diag.CodeCancelled)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false; cause must be preserved")
	}
	// Every check consumes one countdown call, and checks happen at least
	// once per govStride scanned rows — so the scan cannot have run more
	// than (after+1) strides before seeing the cancellation.
	scanned := gov.scanned()
	if scanned == 0 {
		t.Fatal("scan never charged the governor")
	}
	if max := int64(after+1) * govStride; scanned > max {
		t.Errorf("scanned %d rows after cancel budget, want <= %d (bounded latency)", scanned, max)
	}
	if scanned >= nRows {
		t.Errorf("scan ran to completion (%d rows) despite cancellation", scanned)
	}
}

// TestDeadlineStopsLargeAggregation exercises the public path: a
// per-statement deadline from Limits stops a 1M-row parallel aggregation
// with the typed PCT201 error, well before the statement could finish.
func TestDeadlineStopsLargeAggregation(t *testing.T) {
	defer leakcheck.Check(t)()
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE big (g INTEGER, v INTEGER)`)
	tab, err := e.Catalog().Get("big")
	if err != nil {
		t.Fatal(err)
	}
	row := make([]value.Value, 2)
	for i := 0; i < 1_000_000; i++ {
		row[0] = value.NewInt(int64(i % 64))
		row[1] = value.NewInt(int64(i))
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	ctx := WithLimits(context.Background(), Limits{Timeout: time.Millisecond})
	_, err = e.ExecSQLCtxP(ctx, "SELECT g, sum(v) FROM big GROUP BY g", 4)
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CancelledError", err)
	}
	if ce.Code() != diag.CodeDeadline {
		t.Errorf("code = %s, want %s (deadline)", ce.Code(), diag.CodeDeadline)
	}
}

// TestLimitErrorsCarryCodes drives each budget to its typed error.
func TestLimitErrorsCarryCodes(t *testing.T) {
	cases := []struct {
		name string
		lim  Limits
		sql  string
		code string
	}{
		{"rows", Limits{MaxRows: 5}, "SELECT * FROM sales", diag.CodeRowLimit},
		{"groups", Limits{MaxGroups: 2}, "SELECT state, city, sum(salesAmt) FROM sales GROUP BY state, city", diag.CodeGroupLimit},
		{"bytes", Limits{MaxBytes: 16}, "SELECT * FROM sales", diag.CodeByteBudget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t)
			e.SetLimits(tc.lim)
			_, err := e.ExecSQL(tc.sql)
			var le *LimitError
			if !errors.As(err, &le) {
				t.Fatalf("err = %v, want LimitError", err)
			}
			if le.Code() != tc.code {
				t.Errorf("code = %s, want %s", le.Code(), tc.code)
			}
		})
	}
}

// TestContextLimitsOverrideEngineDefaults: WithLimits beats SetLimits.
func TestContextLimitsOverrideEngineDefaults(t *testing.T) {
	e := newTestEngine(t)
	e.SetLimits(Limits{MaxRows: 1})
	ctx := WithLimits(context.Background(), Limits{}) // unlimited for this call
	if _, err := e.ExecSQLCtx(ctx, "SELECT * FROM sales"); err != nil {
		t.Fatalf("context override did not lift the engine default: %v", err)
	}
	if _, err := e.ExecSQL("SELECT * FROM sales"); err == nil {
		t.Fatal("engine default limit not enforced without an override")
	}
}

// TestPreCancelledContext: a context dead before dispatch still yields the
// typed error and runs nothing.
func TestPreCancelledContext(t *testing.T) {
	e := newTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.ExecSQLCtx(ctx, "SELECT * FROM sales")
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CancelledError", err)
	}
}

// TestCancelledDMLLeavesTableUntouched: cancellation mid-INSERT…SELECT must
// roll the target back to its pre-statement row count (statement atomicity).
func TestCancelledDMLLeavesTableUntouched(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `CREATE TABLE dst (state VARCHAR, total INTEGER)`)
	mustExec(t, e, `INSERT INTO dst VALUES ('seed', 0)`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.ExecSQLCtx(ctx, "INSERT INTO dst SELECT state, sum(salesAmt) FROM sales GROUP BY state")
	if err == nil {
		t.Fatal("cancelled INSERT succeeded")
	}
	tab, err := e.Catalog().Get("dst")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 {
		t.Errorf("dst has %d rows after cancelled INSERT, want 1 (atomic rollback)", tab.NumRows())
	}
}

// TestWorkerErrorDeterministic: with a governor installed, the fold
// driver's fan-out reports the lowest partition's real error even though
// siblings are cancelled racing it.
func TestWorkerErrorDeterministic(t *testing.T) {
	errs := []error{
		&CancelledError{cause: context.Canceled},
		fmt.Errorf("boom in partition 2"),
		&CancelledError{cause: context.Canceled},
	}
	if err := partitionError(errs); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("partitionError = %v, want the real error", err)
	}
	errs = []error{&CancelledError{cause: context.Canceled}, nil}
	var ce *CancelledError
	if err := partitionError(errs); !errors.As(err, &ce) {
		t.Errorf("partitionError = %v, want the cancellation when nothing else failed", err)
	}
}

// TestFoldCopyStopsAtBudget pins that the scalar kernel's materialized
// copy (P != 1) is charged as it is built: an input far over MaxRows or
// MaxBytes stops within a stride or two of the limit instead of being
// copied whole, and a fold within budget charges each row exactly once.
func TestFoldCopyStopsAtBudget(t *testing.T) {
	const nRows = 200_000
	tab := bigGroupTable(t, nRows)
	cols := expr.SchemaResolver([]string{"g", "v"})
	keyExpr, err := expr.Bind(expr.QCol("", "g"), cols)
	if err != nil {
		t.Fatal(err)
	}
	argExpr, err := expr.Bind(expr.QCol("", "v"), cols)
	if err != nil {
		t.Fatal(err)
	}
	specs := []aggSpec{{call: &expr.AggCall{Fn: expr.AggSum}, arg: argExpr}}
	fold := func(par int, lim Limits) (*governor, error) {
		gov := newGovernor(context.Background(), lim)
		scan := newTableScan(tab, "big")
		scan.gov = gov
		_, err := hashAggregate(scan, []expr.Expr{keyExpr}, specs, execCtx{par: par, gov: gov})
		return gov, err
	}
	for _, tc := range []struct {
		name string
		lim  Limits
		code string
	}{
		{"rows", Limits{MaxRows: 1000}, diag.CodeRowLimit},
		{"bytes", Limits{MaxBytes: 1000 * 48}, diag.CodeByteBudget},
	} {
		for _, par := range []int{0, 1, 2, 8} {
			gov, err := fold(par, tc.lim)
			var le *LimitError
			if !errors.As(err, &le) || le.Code() != tc.code {
				t.Fatalf("%s P=%d: err = %v, want %s", tc.name, par, err, tc.code)
			}
			if got, max := gov.scanned(), int64(2*govStride); got > max {
				t.Errorf("%s P=%d: scanned %d rows, want <= %d (the copy must stop at the budget)", tc.name, par, got, max)
			}
		}
	}
	for _, par := range []int{0, 1, 2, 8} {
		gov, err := fold(par, Limits{MaxRows: nRows, MaxBytes: nRows * 48})
		if err != nil {
			t.Fatalf("P=%d within budget: %v", par, err)
		}
		if rows, bytes := gov.c.rows, gov.c.bytes; rows != nRows || bytes != nRows*48 {
			t.Errorf("P=%d: charged %d rows / %d bytes, want %d / %d (each folded row once)", par, rows, bytes, nRows, nRows*48)
		}
	}
}

// TestStoredRowBytesMatchesBoxed pins the columnar byte estimate to
// estimateRowBytes of the boxed row, NULL strings and overwritten cells
// included.
func TestStoredRowBytesMatchesBoxed(t *testing.T) {
	tab, err := storage.NewTable("t", storage.Schema{
		{Name: "s", Type: storage.TypeString},
		{Name: "i", Type: storage.TypeInt},
		{Name: "u", Type: storage.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]value.Value{
		{value.NewString("abc"), value.NewInt(1), value.Null},
		{value.Null, value.Null, value.NewString("hello world")},
		{value.NewString(""), value.NewInt(3), value.NewString("x")},
	} {
		if _, err := tab.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Set(2, 2, value.Null); err != nil {
		t.Fatal(err)
	}
	size := storedRowBytes(tab)
	for r := 0; r < tab.NumRows(); r++ {
		if got, want := size(r), estimateRowBytes(tab.Row(r, nil)); got != want {
			t.Errorf("row %d: storedRowBytes = %d, want %d", r, got, want)
		}
	}
}
