package engine

import (
	"context"

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
// columns to a group and each term's BY columns to a column index. It runs
// on the fold driver (fold.go), so its cells are ordinary accumulators and
// it shares the scalar and batch kernels' worker policy, merge and
// governor.

// Pivot batch metrics: hash-pivot scans that ran with columnar row access
// vs. ones pinned to the boxed-row path (batch execution off, or an
// injected core.batch fault).
var (
	mPivotBatch         = obs.Default.Counter("batch.pivot.folds")
	mPivotBatchFallback = obs.Default.Counter("batch.pivot.fallbacks")
)

// PivotSpec is a hash pivot over one stored table: every row passing Where
// folds, for each term, into the cell at (its group, the column of its BY
// combination).
type PivotSpec struct {
	Table *storage.Table
	// Where filters the input rows (nil keeps every row). Where and the
	// terms' arguments are bound over the table's columns.
	Where expr.Expr
	// Group holds the group-key column indexes.
	Group []int
	// Terms are the pivoted aggregates; their columns follow the group key
	// in the output, term after term.
	Terms []PivotTerm
}

// PivotTerm is one pivoted aggregate. A term without BY columns has one
// column that folds every row of its group: a plain aggregate.
type PivotTerm struct {
	// Call is the aggregate every cell folds.
	Call *expr.AggCall
	// Arg is the folded value; nil folds a 1 per row (count(*)).
	Arg expr.Expr
	// By holds the BY column indexes.
	By []int
	// Columns maps a BY combination, encoded with value.EncodeKeyString, to
	// its column. A row whose combination has no column (it appeared after
	// the layout was planned) folds into no cell of the term, as a CASE
	// term would count it in none of its columns.
	Columns map[string]int
}

// width is the term's output column count.
func (t *PivotTerm) width() int {
	if len(t.By) == 0 {
		return 1
	}
	return len(t.Columns)
}

// Pivot runs a hash pivot under ctx's cancellation and limits and returns
// one row per group in first-appearance order: the group-key values, then
// each term's columns — NULL until a row of that combination arrives, the
// cell's aggregate after. A plain aggregate term's cell exists from the
// start, so it renders as its aggregate over no rows in the one group an
// empty input yields without a group key.
func (e *Engine) Pivot(ctx context.Context, spec PivotSpec, parallelism int, span *obs.Span) ([][]value.Value, error) {
	tab := spec.Table
	k := newPivotKernel(spec)
	// Row access: with batch execution on, typed getters and a lazy row view
	// read only the cells the pivot touches; otherwise each row is boxed
	// whole. Values, evaluation order and errors are identical either way.
	// An injected core.batch fault pins the boxed path for this statement.
	if e.BatchEnabled() && chaos.Hit(chaos.CoreBatch) == nil {
		mPivotBatch.Inc()
		k.batched = true
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
		global:   len(spec.Group) == 0,
		stored:   storedRowBytes(tab),
		foldSpan: "pivot fold",
	}
	return f.run()
}

// pivotKernel folds table rows into (group, column) cells.
type pivotKernel struct {
	spec PivotSpec
	// batched selects typed getters and a lazy row view over boxed rows.
	batched bool
	// off is each term's first accumulator index; width the total.
	off   []int
	width int
	// args are the distinct term arguments, evaluated once per row;
	// argOf[t] indexes term t's (-1: count(*)).
	args  []expr.Expr
	argOf []int
}

func newPivotKernel(spec PivotSpec) *pivotKernel {
	k := &pivotKernel{spec: spec, off: make([]int, len(spec.Terms)), argOf: make([]int, len(spec.Terms))}
	seen := map[string]int{}
	for ti := range spec.Terms {
		t := &spec.Terms[ti]
		k.off[ti] = k.width
		k.width += t.width()
		k.argOf[ti] = -1
		if t.Arg == nil {
			continue
		}
		s := t.Arg.String()
		ai, ok := seen[s]
		if !ok {
			ai = len(k.args)
			seen[s] = ai
			k.args = append(k.args, t.Arg)
		}
		k.argOf[ti] = ai
	}
	return k
}

// newAccs builds a group's accumulators: a BY term's cells are created
// when their first row arrives, a plain aggregate's cell at once.
func (k *pivotKernel) newAccs() ([]accumulator, error) {
	accs := make([]accumulator, k.width)
	for ti := range k.spec.Terms {
		t := &k.spec.Terms[ti]
		if len(t.By) > 0 {
			continue
		}
		acc, err := newAccumulator(t.Call)
		if err != nil {
			return nil, err
		}
		accs[k.off[ti]] = acc
	}
	return accs, nil
}

func (k *pivotKernel) fold(p *foldPart[string], lo, hi int) error {
	spec := &k.spec
	tab := spec.Table
	box := &rowBox{}
	lazy := &lazyRow{tab: tab}
	var rv expr.Row = box
	if k.batched {
		rv = lazy
	}
	groupGet := k.getters(spec.Group, box)
	byGet := make([][]colGetter, len(spec.Terms))
	for ti := range spec.Terms {
		byGet[ti] = k.getters(spec.Terms[ti].By, box)
	}
	keyVals := make([]value.Value, len(spec.Group))
	argVals := make([]value.Value, len(k.args))
	byKey := make([]byte, 0, 64)
	for base := lo; base < hi; base += govStride {
		end := min(base+govStride, hi)
		for r := base; r < end; r++ {
			if k.batched {
				lazy.r = r
			} else {
				box.vals = tab.Row(r, box.vals)
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
			for ai, a := range k.args {
				var err error
				if argVals[ai], err = a.Eval(rv); err != nil {
					return err
				}
			}
			for ti := range spec.Terms {
				t := &spec.Terms[ti]
				ci := 0
				if len(t.By) > 0 {
					byKey = byKey[:0]
					for _, get := range byGet[ti] {
						byKey = value.AppendKey(byKey, get(r))
					}
					if ci, ok = t.Columns[string(byKey)]; !ok {
						continue
					}
				}
				mv := value.NewInt(1)
				if ai := k.argOf[ti]; ai >= 0 {
					mv = argVals[ai]
				}
				acc := &g.accs[k.off[ti]+ci]
				if *acc == nil {
					var err error
					if *acc, err = newAccumulator(t.Call); err != nil {
						return err
					}
				}
				if err := (*acc).add(mv); err != nil {
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

// getters returns the getters of cols: typed column getters under batched
// access, reads of the boxed row otherwise.
func (k *pivotKernel) getters(cols []int, box *rowBox) []colGetter {
	gets := make([]colGetter, len(cols))
	for i, c := range cols {
		if k.batched {
			gets[i] = columnGetter(k.spec.Table, c)
		} else {
			gets[i] = func(int) value.Value { return box.vals[c] }
		}
	}
	return gets
}
