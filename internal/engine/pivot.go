package engine

import (
	"context"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// The hash-pivot kernel. The CASE strategies evaluate N boolean
// conjunctions per input row even though the conjunctions are disjoint —
// one row falls in exactly one result column. The paper observes the
// optimizer could map a row to its column in O(1) with a hash table; this
// kernel does that in one scan of a stored table, hashing the group
// columns to a group and the BY columns to a column index. It runs on the
// fold driver (fold.go), so its cells are ordinary accumulators and it
// shares the scalar and batch kernels' worker policy, merge and governor.

// Pivot batch metrics: hash-pivot scans that ran with columnar row access
// vs. ones pinned to the boxed-row path (batch execution off, or an
// injected core.batch fault).
var (
	mPivotBatch         = obs.Default.Counter("batch.pivot.folds")
	mPivotBatchFallback = obs.Default.Counter("batch.pivot.fallbacks")
)

// PivotSpec is a hash pivot over one stored table: every row passing Where
// folds its measure into the cell at (its group, the column of its BY
// combination).
type PivotSpec struct {
	Table *storage.Table
	// Where filters the input rows (nil keeps every row). Where and Measure
	// are bound over the table's columns.
	Where expr.Expr
	// Group and By are the group-key and BY column indexes.
	Group, By []int
	// Columns maps a BY combination, encoded with value.EncodeKeyString, to
	// its result column.
	Columns map[string]int
	// Cell is the aggregate every cell folds.
	Cell *expr.AggCall
	// Measure is the folded value; nil folds a 1 per row (count(*)).
	Measure expr.Expr
	// Total additionally folds each group's sum of the measure.
	Total bool
}

// Pivot runs a hash pivot under ctx's cancellation and limits and returns
// one row per group in first-appearance order: the group-key values, one
// value per result column — NULL until a row of that combination arrives,
// the cell's aggregate after — and, when spec.Total is set, the group's
// total. span receives the fold's spans.
func (e *Engine) Pivot(ctx context.Context, spec PivotSpec, parallelism int, span *obs.Span) ([][]value.Value, error) {
	tab := spec.Table
	k := &pivotKernel{spec: spec}
	// Row access: with batch execution on, typed getters and a lazy row view
	// read only the cells the pivot touches; otherwise each row is boxed
	// whole. Values, evaluation order and errors are identical either way.
	// An injected core.batch fault pins the boxed path for this statement.
	batched := e.BatchEnabled() && chaos.Hit(chaos.CoreBatch) == nil
	if batched {
		mPivotBatch.Inc()
		k.groupGet = tableGetters(tab, spec.Group)
		k.byGet = tableGetters(tab, spec.By)
	} else {
		mPivotBatchFallback.Inc()
	}
	var gov *governor
	if lim := e.effectiveLimits(ctx); ctx.Done() != nil || !lim.zero() {
		gov = newGovernor(ctx, lim)
	}
	f := &fold[string]{
		ec:       execCtx{par: parallelism, span: span, gov: gov},
		rows:     tab.NumRows(),
		kernel:   k.fold,
		newAccs:  k.newAccs,
		stored:   storedRowBytes(tab),
		foldSpan: "pivot fold",
	}
	return f.run()
}

// tableGetters builds typed getters for the given columns of tab.
func tableGetters(tab *storage.Table, cols []int) []colGetter {
	gets := make([]colGetter, len(cols))
	for i, c := range cols {
		gets[i] = columnGetter(tab, c)
	}
	return gets
}

// pivotKernel folds table rows into (group, column) cells.
type pivotKernel struct {
	spec PivotSpec
	// groupGet and byGet are the typed column getters of the batched row
	// access; nil selects boxed rows.
	groupGet, byGet []colGetter
}

// newAccs builds a group's accumulators: one per result column, created
// when the column's first row arrives, then the total when asked for.
func (k *pivotKernel) newAccs() ([]accumulator, error) {
	n := len(k.spec.Columns)
	if !k.spec.Total {
		return make([]accumulator, n), nil
	}
	accs := make([]accumulator, n+1)
	accs[n] = &sumAcc{}
	return accs, nil
}

func (k *pivotKernel) fold(p *foldPart[string], lo, hi int) error {
	spec := &k.spec
	box := &rowBox{}
	lazy := &lazyRow{tab: k.spec.Table}
	groupGet, byGet := k.groupGet, k.byGet
	if groupGet == nil {
		boxed := func(cols []int) []colGetter {
			gets := make([]colGetter, len(cols))
			for i, c := range cols {
				gets[i] = func(int) value.Value { return box.vals[c] }
			}
			return gets
		}
		groupGet, byGet = boxed(spec.Group), boxed(spec.By)
	}
	keyVals := make([]value.Value, len(spec.Group))
	byKey := make([]byte, 0, 64)
	ncols := len(spec.Columns)
	for base := lo; base < hi; base += govStride {
		end := min(base+govStride, hi)
		for r := base; r < end; r++ {
			var rv expr.Row = box
			if k.groupGet != nil {
				lazy.r = r
				rv = lazy
			} else {
				box.vals = k.spec.Table.Row(r, box.vals)
			}
			if spec.Where != nil {
				v, err := spec.Where.Eval(rv)
				if err != nil {
					return err
				}
				if !v.Truthy() {
					continue
				}
			}
			p.key = p.key[:0]
			for i, get := range groupGet {
				keyVals[i] = get(r)
				p.key = value.AppendKey(p.key, keyVals[i])
			}
			g, ok := p.groups[string(p.key)]
			if !ok {
				if err := chaos.Hit(chaos.PivotAlloc); err != nil {
					return err
				}
				var err error
				if g, err = p.newGroup(string(p.key), append([]value.Value(nil), keyVals...)); err != nil {
					return err
				}
			}
			byKey = byKey[:0]
			for _, get := range byGet {
				byKey = value.AppendKey(byKey, get(r))
			}
			ci, ok := spec.Columns[string(byKey)]
			if !ok {
				// A combination outside the planned layout (possible only if
				// the table changed between planning and execution).
				return fmt.Errorf("engine: pivot row %d has a BY combination absent from the planned column layout", r)
			}
			mv := value.NewInt(1)
			if spec.Measure != nil {
				var err error
				if mv, err = spec.Measure.Eval(rv); err != nil {
					return err
				}
			}
			if g.accs[ci] == nil {
				acc, err := newAccumulator(spec.Cell)
				if err != nil {
					return err
				}
				g.accs[ci] = acc
			}
			if err := g.accs[ci].add(mv); err != nil {
				return err
			}
			if spec.Total {
				if err := g.accs[ncols].add(mv); err != nil {
					return err
				}
			}
			if err := p.chargeStored(r); err != nil {
				return err
			}
		}
		if err := p.gov.addScanned(int64(end - base)); err != nil {
			return err
		}
	}
	return nil
}
