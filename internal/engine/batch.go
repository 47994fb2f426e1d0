package engine

import (
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/chaos"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// Vectorized batch aggregation. When a GROUP BY pipeline is a plain
// scan→filter*→fold over one stored table, the row-at-a-time iterator walk
// (which boxes every column of every row into value.Values and crosses an
// interface call per operator per row) is replaced by kernels that read
// the table's raw column vectors directly, batch.Size (= govStride = 1024)
// rows at a time:
//
//   - selection: error-free specialized predicates (eqConstFast,
//     isNullFast, andFast — see specialize.go) refine a pooled selection
//     vector per batch; typed fast paths compare raw int/string/bool
//     vectors and fall back to per-row SQLEqual for cross-kind compares
//     (still error-free). A predicate that can error disables
//     vectorization of the filter only: rows are then filtered and folded
//     one at a time in input order, preserving the scalar path's error
//     ordering exactly, but still without boxing whole rows.
//   - fold: group keys come straight from the key columns. When every key
//     column is INTEGER (≤ 4 of them) the group table is keyed by a fixed
//     [4]int64+null-mask struct — no encoding, no string allocation;
//     otherwise keys use the same order-preserving value.AppendKey
//     encoding as the scalar fold, so grouping is bit-identical. The
//     accumulators are the scalar path's own (aggregate.go), fed from
//     typed column getters — results are byte-identical by construction.
//
// The kernel runs on the partitioned fold driver (fold.go), so worker
// count, fan-out, merge order, spans and governor charges are the scalar
// kernel's by construction; the kernel itself charges addScanned once per
// batch. Shapes the kernel does not cover (joins, computed keys or
// arguments, sum/avg over non-numeric columns) and injected core.batch
// faults fall back to the scalar kernel silently.

// Batch-execution metrics: folds that ran vectorized, rows they consumed,
// and aggregates that fell back to the scalar path (unsupported shape or
// an injected core.batch fault).
var (
	mBatchFolds     = obs.Default.Counter("batch.folds")
	mBatchFoldRows  = obs.Default.Counter("batch.fold.rows")
	mBatchFallbacks = obs.Default.Counter("batch.fallbacks")
)

// colGetter boxes one cell of a column. The boxing here is a struct
// construction, not a heap allocation — the saving over the scalar path is
// touching only the columns the query uses.
type colGetter func(r int) value.Value

// batchExec is a validated batch-aggregation plan over one stored table.
type batchExec struct {
	in      iterator
	scan    *tableScan
	tab     *storage.Table
	filters []*filterIter // innermost first
	preds   []expr.Expr   // innermost first, matching filters
	vector  bool          // all preds error-free → vectorized selection
	keyGet  []colGetter
	argGet  []colGetter // per spec; nil = count(*)
	specs   []aggSpec
	// intKeys selects the [4]int64 group-key fast path.
	intKeys bool
	keyInts [][]int64
	keyNull []func(int) bool
	// passed counts rows surviving each predicate and ns the kernel wall,
	// summed over partitions, for the operator stats.
	passed []atomic.Int64
	ns     atomic.Int64
}

// intKey is the fixed-width group key for ≤ 4 INTEGER key columns. Two
// rows map to the same intKey exactly when their AppendKey encodings are
// equal, so grouping matches the scalar fold.
type intKey struct {
	v    [4]int64
	mask uint8 // bit i set = key column i is NULL (v[i] is then 0)
}

// batchAggregate tries the vectorized fold. handled is false when the
// pipeline shape is not covered (or a core.batch fault is injected); the
// caller then runs the scalar path.
func batchAggregate(in iterator, keyExprs []expr.Expr, specs []aggSpec, ec execCtx) (out [][]value.Value, handled bool, err error) {
	bx, ok := planBatch(in, keyExprs, specs)
	if !ok {
		mBatchFallbacks.Inc()
		return nil, false, nil
	}
	if cerr := chaos.Hit(chaos.CoreBatch); cerr != nil {
		// An injected kernel error means "batch unavailable", not "query
		// failed": report the shape as unhandled and let the scalar path
		// produce the result.
		mBatchFallbacks.Inc()
		return nil, false, nil
	}
	if bx.intKeys {
		out, err = runBatch(bx, bx.intGroup, ec)
	} else {
		out, err = runBatch(bx, bx.strGroup, ec)
	}
	if err == nil {
		n := int64(bx.tab.NumRows())
		mBatchFolds.Inc()
		mBatchFoldRows.Add(n)
		// The scalar scan counts its rows at exhaustion; mirror that on
		// kernel success only.
		mRowsScanned.Add(n)
	}
	return out, true, err
}

// planBatch validates the pipeline shape and builds the kernel plan.
func planBatch(in iterator, keyExprs []expr.Expr, specs []aggSpec) (*batchExec, bool) {
	bx := &batchExec{in: in, specs: specs}
	cur := in
unwrap:
	for {
		switch n := cur.(type) {
		case *filterIter:
			bx.filters = append(bx.filters, n)
			bx.preds = append(bx.preds, n.pred)
			cur = n.child
		case *tableScan:
			if n.pos != 0 {
				return nil, false
			}
			bx.scan = n
			bx.tab = n.tab
			break unwrap
		default:
			return nil, false
		}
	}
	bx.passed = make([]atomic.Int64, len(bx.preds))
	// Collected outermost-first; reverse to application (innermost-first)
	// order so interleaved filtering reproduces the scalar error order.
	for i, j := 0, len(bx.preds)-1; i < j; i, j = i+1, j-1 {
		bx.preds[i], bx.preds[j] = bx.preds[j], bx.preds[i]
		bx.filters[i], bx.filters[j] = bx.filters[j], bx.filters[i]
	}
	bx.vector = true
	for _, p := range bx.preds {
		if !predErrFree(p) {
			bx.vector = false
			break
		}
	}
	ncols := bx.tab.NumCols()
	bx.intKeys = len(keyExprs) > 0 && len(keyExprs) <= 4
	for _, ke := range keyExprs {
		cr, ok := ke.(*expr.ColumnRef)
		if !ok || cr.Index < 0 || cr.Index >= ncols {
			return nil, false
		}
		bx.keyGet = append(bx.keyGet, columnGetter(bx.tab, cr.Index))
		if ints, isNull, isInt := bx.tab.IntColumn(cr.Index); isInt {
			bx.keyInts = append(bx.keyInts, ints)
			bx.keyNull = append(bx.keyNull, isNull)
		} else {
			bx.intKeys = false
		}
	}
	for _, s := range specs {
		if s.arg == nil {
			bx.argGet = append(bx.argGet, nil)
			continue
		}
		cr, ok := s.arg.(*expr.ColumnRef)
		if !ok || cr.Index < 0 || cr.Index >= ncols {
			return nil, false
		}
		if s.call.Fn == expr.AggSum || s.call.Fn == expr.AggAvg {
			// sum()/avg() over a non-numeric column errors per row on the
			// scalar path; keep that path authoritative for the error.
			if t := bx.tab.Schema()[cr.Index].Type; t == storage.TypeString || t == storage.TypeBool {
				return nil, false
			}
		}
		bx.argGet = append(bx.argGet, columnGetter(bx.tab, cr.Index))
	}
	return bx, true
}

// predErrFree reports whether a specialized predicate tree cannot return
// an error from Eval — the condition for vectorizing its filter.
func predErrFree(e expr.Expr) bool {
	switch n := e.(type) {
	case *eqConstFast, *isNullFast:
		return true
	case *andFast:
		return predErrFree(n.left) && predErrFree(n.right)
	}
	return false
}

// columnGetter builds a typed boxing getter for one column of tab; the
// batched join probe shares it.
func columnGetter(tab *storage.Table, idx int) colGetter {
	if ints, isNull, ok := tab.IntColumn(idx); ok {
		return func(r int) value.Value {
			if isNull(r) {
				return value.Null
			}
			return value.NewInt(ints[r])
		}
	}
	if flts, isNull, ok := tab.FloatColumn(idx); ok {
		return func(r int) value.Value {
			if isNull(r) {
				return value.Null
			}
			return value.NewFloat(flts[r])
		}
	}
	if strs, isNull, ok := tab.StringColumn(idx); ok {
		return func(r int) value.Value {
			if isNull(r) {
				return value.Null
			}
			return value.NewString(strs[r])
		}
	}
	if bools, isNull, ok := tab.BoolColumn(idx); ok {
		return func(r int) value.Value {
			if isNull(r) {
				return value.Null
			}
			return value.NewBool(bools[r])
		}
	}
	return func(r int) value.Value { return tab.Get(r, idx) }
}

// lazyRow adapts one stored row to expr.Row without boxing every column:
// only the cells the expression touches are materialized.
type lazyRow struct {
	tab *storage.Table
	r   int
}

func (l *lazyRow) ColumnValue(i int) value.Value { return l.tab.Get(l.r, i) }

// applySel refines a selection vector through one error-free predicate.
func (bx *batchExec) applySel(p expr.Expr, sel []int32) []int32 {
	switch n := p.(type) {
	case *andFast:
		// Truthy(AND) is both-truthy under 3VL, so successive refinement
		// is exact.
		sel = bx.applySel(n.left, sel)
		if len(sel) == 0 {
			return sel
		}
		return bx.applySel(n.right, sel)
	case *isNullFast:
		isNull := bx.tab.ColumnNulls(n.idx)
		out := sel[:0]
		for _, r := range sel {
			if isNull(int(r)) != n.negate {
				out = append(out, r)
			}
		}
		return out
	case *eqConstFast:
		return bx.eqSel(n, sel)
	}
	return sel // unreachable: predErrFree admits only the cases above
}

// eqSel is the column = constant kernel. Typed fast paths cover same-kind
// int/string/bool compares; everything else (floats, cross-kind) goes
// through per-row SQLEqual, which is still error-free and bit-identical to
// eqConstFast.Eval.
func (bx *batchExec) eqSel(e *eqConstFast, sel []int32) []int32 {
	out := sel[:0]
	if e.val.IsNull() {
		return out // NULL compares to nothing; never truthy
	}
	if ints, isNull, ok := bx.tab.IntColumn(e.idx); ok && e.val.Kind() == value.KindInt {
		c := e.val.Int()
		for _, r := range sel {
			if !isNull(int(r)) && ints[r] == c {
				out = append(out, r)
			}
		}
		return out
	}
	if strs, isNull, ok := bx.tab.StringColumn(e.idx); ok && e.val.Kind() == value.KindString {
		c := e.val.Str()
		for _, r := range sel {
			if !isNull(int(r)) && strs[r] == c {
				out = append(out, r)
			}
		}
		return out
	}
	if bools, isNull, ok := bx.tab.BoolColumn(e.idx); ok && e.val.Kind() == value.KindBool {
		c := e.val.Bool()
		for _, r := range sel {
			if !isNull(int(r)) && bools[r] == c {
				out = append(out, r)
			}
		}
		return out
	}
	get := columnGetter(bx.tab, e.idx)
	for _, r := range sel {
		if value.SQLEqual(get(int(r)), e.val).Truthy() {
			out = append(out, r)
		}
	}
	return out
}

// selectBatch fills sel with the row ids in [base, base+bn) passing every
// predicate, recording per-predicate survivor counts. Vector mode only.
func (bx *batchExec) selectBatch(base, bn int, sel []int32, passed []int64) []int32 {
	sel = sel[:0]
	for i := 0; i < bn; i++ {
		sel = append(sel, int32(base+i))
	}
	for i, p := range bx.preds {
		if len(sel) > 0 {
			sel = bx.applySel(p, sel)
		}
		passed[i] += int64(len(sel))
	}
	return sel
}

// keyVals boxes row r's group-key values.
func (bx *batchExec) keyVals(r int) []value.Value {
	if len(bx.keyGet) == 0 {
		return nil
	}
	vals := make([]value.Value, len(bx.keyGet))
	for i, get := range bx.keyGet {
		vals[i] = get(r)
	}
	return vals
}

// strGroup finds row r's group under the AppendKey encoding — the general
// key, grouping-compatible with the scalar kernel by sharing its encoding.
func (bx *batchExec) strGroup(p *foldPart[string], r int) (*group, error) {
	p.key = p.key[:0]
	for _, get := range bx.keyGet {
		p.key = value.AppendKey(p.key, get(r))
	}
	if g, ok := p.groups[string(p.key)]; ok {
		return g, nil
	}
	return p.newGroup(string(p.key), bx.keyVals(r))
}

// intGroup finds row r's group under the fixed-width integer key — no key
// encoding or string allocation on the hot path.
func (bx *batchExec) intGroup(p *foldPart[intKey], r int) (*group, error) {
	var k intKey
	for i, ints := range bx.keyInts {
		if bx.keyNull[i](r) {
			k.mask |= 1 << i
		} else {
			k.v[i] = ints[r]
		}
	}
	if g, ok := p.groups[k]; ok {
		return g, nil
	}
	return p.newGroup(k, bx.keyVals(r))
}

// runBatch runs the batch kernel on the fold driver, with find as the
// group lookup for the key type K.
func runBatch[K comparable](bx *batchExec, find func(*foldPart[K], int) (*group, error), ec execCtx) ([][]value.Value, error) {
	f := &fold[K]{
		ec:         ec,
		rows:       bx.tab.NumRows(),
		kernel:     func(p *foldPart[K], lo, hi int) error { return batchFold(bx, p, lo, hi, find) },
		newAccs:    func() ([]accumulator, error) { return newAccs(bx.specs) },
		global:     len(bx.keyGet) == 0,
		stored:     storedRowBytes(bx.tab),
		kernelName: "batch",
	}
	// The workers read disjoint row ranges of the immutable column vectors;
	// there is no materialized copy, so the operator subtree's time is spent
	// inside the kernel.
	f.ops = func() *obs.Span {
		bx.fillStats(f.workers)
		return operatorSpans(bx.in)
	}
	out, err := f.run()
	if err == nil {
		bx.fillStats(f.workers)
	}
	return out, err
}

// batchFold folds table rows [lo, hi) into p, batch.Size rows at a time;
// find maps a row to its group, creating it on first sight.
func batchFold[K comparable](bx *batchExec, p *foldPart[K], lo, hi int, find func(*foldPart[K], int) (*group, error)) error {
	t0 := time.Now()
	passed := make([]int64, len(bx.preds))
	defer func() {
		for i, n := range passed {
			bx.passed[i].Add(n)
		}
		bx.ns.Add(time.Since(t0).Nanoseconds())
	}()
	pool := batch.Default
	sel := pool.GetSel(batch.Size)
	defer func() { pool.PutSel(sel) }()
	if !bx.intKeys {
		p.key = pool.GetBytes(64)
		defer func() { pool.PutBytes(p.key) }()
	}

	foldRow := func(r int) error {
		g, err := find(p, r)
		if err != nil {
			return err
		}
		for i := range bx.specs {
			var v value.Value
			if get := bx.argGet[i]; get != nil {
				v = get(r)
			}
			if err := g.accs[i].add(v); err != nil {
				return err
			}
		}
		return p.chargeStored(r)
	}

	lr := lazyRow{tab: bx.tab}
	for base := lo; base < hi; base += batch.Size {
		bn := min(hi-base, batch.Size)
		if bx.vector {
			sel = bx.selectBatch(base, bn, sel, passed)
			for _, r := range sel {
				if err := foldRow(int(r)); err != nil {
					return err
				}
			}
		} else {
			// Interleaved mode: a predicate that can error forces per-row
			// pred-then-fold order, so the first error is the scalar one.
			for r := base; r < base+bn; r++ {
				lr.r = r
				pass := true
				for pi, pred := range bx.preds {
					v, err := pred.Eval(&lr)
					if err != nil {
						return err
					}
					if !v.Truthy() {
						pass = false
						break
					}
					passed[pi]++
				}
				if !pass {
					continue
				}
				if err := foldRow(r); err != nil {
					return err
				}
			}
		}
		// One scan charge per batch: same stride and totals as the scalar
		// scan.
		if err := p.gov.addScanned(int64(bn)); err != nil {
			return err
		}
	}
	return nil
}

// fillStats backfills the per-operator instrumentation (allocated by
// instrumentIter when the statement is traced) that the kernel bypassed:
// the scan's row count and each filter's survivor count. A sequential
// fold charges its kernel wall inclusively down the chain; a fan-out's time
// lives in the worker spans, so it charges none.
func (bx *batchExec) fillStats(workers int) {
	var ns int64
	if workers == 1 {
		ns = bx.ns.Load()
	}
	if bx.scan.stats != nil {
		bx.scan.stats.rows = int64(bx.tab.NumRows())
		bx.scan.stats.ns = ns
	}
	for i, f := range bx.filters {
		if f.stats != nil {
			f.stats.rows = bx.passed[i].Load()
			f.stats.ns = ns
		}
	}
}
