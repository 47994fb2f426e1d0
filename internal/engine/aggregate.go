package engine

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/value"
)

// accumulator folds one aggregate function over the rows of a group.
// merge folds another accumulator of the same concrete type — built over a
// disjoint row partition — into the receiver, so that add(r1…rn) ≡
// add(r1…rk).merge(add(rk+1…rn)) for every split point k. The fold driver
// (fold.go) relies on this to combine per-worker partial states.
type accumulator interface {
	add(v value.Value) error
	merge(o accumulator) error
	result() value.Value
}

// mergeTypeError reports an accumulator-kind mismatch during a parallel
// merge. It can only fire on an engine bug (workers build their accumulators
// from the same specs), so it is defensive rather than reachable from SQL.
func mergeTypeError(dst, src accumulator) error {
	return fmt.Errorf("engine: cannot merge %T into %T", src, dst)
}

// newAccumulator builds the accumulator for an aggregate call. BY-carrying
// calls never reach here (the rewriter eliminates them).
func newAccumulator(call *expr.AggCall) (accumulator, error) {
	if call.Distinct {
		if call.Fn != expr.AggCount {
			return nil, fmt.Errorf("engine: DISTINCT is only supported with count()")
		}
		return &countDistinctAcc{seen: make(map[string]struct{})}, nil
	}
	switch call.Fn {
	case expr.AggSum:
		return &sumAcc{}, nil
	case expr.AggCount:
		return &countAcc{star: call.Star}, nil
	case expr.AggAvg:
		return &avgAcc{}, nil
	case expr.AggMin:
		return &minMaxAcc{min: true}, nil
	case expr.AggMax:
		return &minMaxAcc{}, nil
	default:
		return nil, fmt.Errorf("engine: aggregate %s must be rewritten before execution", call.Fn)
	}
}

// sumAcc sums skipping NULLs; an all-NULL (or empty) group yields NULL,
// matching SQL sum() — the semantics Vpct inherits.
type sumAcc struct {
	seen  bool
	isInt bool
	isum  int64
	fsum  float64
}

func (a *sumAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	switch v.Kind() {
	case value.KindInt:
		if !a.seen {
			a.seen, a.isInt = true, true
			a.isum = v.Int()
			return nil
		}
		if a.isInt {
			a.isum += v.Int()
		} else {
			a.fsum += float64(v.Int())
		}
	case value.KindFloat:
		if !a.seen {
			a.seen, a.isInt = true, false
			a.fsum = v.Float()
			return nil
		}
		if a.isInt {
			a.fsum = float64(a.isum) + v.Float()
			a.isInt = false
		} else {
			a.fsum += v.Float()
		}
	default:
		return fmt.Errorf("engine: sum() on %s", v.Kind())
	}
	return nil
}

// floatTotal reads the running sum as a float regardless of representation.
func (a *sumAcc) floatTotal() float64 {
	if a.isInt {
		return float64(a.isum)
	}
	return a.fsum
}

func (a *sumAcc) merge(o accumulator) error {
	b, ok := o.(*sumAcc)
	if !ok {
		return mergeTypeError(a, o)
	}
	if !b.seen {
		return nil
	}
	if !a.seen {
		*a = *b
		return nil
	}
	if a.isInt && b.isInt {
		a.isum += b.isum
		return nil
	}
	// Any float on either side demotes the whole sum to float, exactly as a
	// sequential scan over the concatenated partitions would.
	a.fsum = a.floatTotal() + b.floatTotal()
	a.isInt = false
	return nil
}

func (a *sumAcc) result() value.Value {
	if !a.seen {
		return value.Null
	}
	if a.isInt {
		return value.NewInt(a.isum)
	}
	return value.NewFloat(a.fsum)
}

// countAcc counts rows (star) or non-NULL values.
type countAcc struct {
	star bool
	n    int64
}

func (a *countAcc) add(v value.Value) error {
	if a.star || !v.IsNull() {
		a.n++
	}
	return nil
}

func (a *countAcc) merge(o accumulator) error {
	b, ok := o.(*countAcc)
	if !ok {
		return mergeTypeError(a, o)
	}
	a.n += b.n
	return nil
}

func (a *countAcc) result() value.Value { return value.NewInt(a.n) }

// countDistinctAcc counts distinct non-NULL values.
type countDistinctAcc struct {
	seen map[string]struct{}
	buf  []byte
}

func (a *countDistinctAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	a.buf = value.AppendKey(a.buf[:0], v)
	if _, ok := a.seen[string(a.buf)]; !ok {
		a.seen[string(a.buf)] = struct{}{}
	}
	return nil
}

// merge takes the set union of the two partitions' value sets: count
// distinct is not distributive over partial counts (both partitions may have
// seen the same value), so the full set must travel with the partial state.
func (a *countDistinctAcc) merge(o accumulator) error {
	b, ok := o.(*countDistinctAcc)
	if !ok {
		return mergeTypeError(a, o)
	}
	for k := range b.seen {
		a.seen[k] = struct{}{}
	}
	return nil
}

func (a *countDistinctAcc) result() value.Value { return value.NewInt(int64(len(a.seen))) }

// avgAcc averages non-NULL values; empty → NULL.
type avgAcc struct {
	sum sumAcc
	n   int64
}

func (a *avgAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	a.n++
	return a.sum.add(v)
}

func (a *avgAcc) merge(o accumulator) error {
	b, ok := o.(*avgAcc)
	if !ok {
		return mergeTypeError(a, o)
	}
	if err := a.sum.merge(&b.sum); err != nil {
		return err
	}
	a.n += b.n
	return nil
}

func (a *avgAcc) result() value.Value {
	if a.n == 0 {
		return value.Null
	}
	s := a.sum.result()
	f, _ := s.AsFloat()
	return value.NewFloat(f / float64(a.n))
}

// minMaxAcc tracks the extreme non-NULL value; empty → NULL.
type minMaxAcc struct {
	min  bool
	seen bool
	best value.Value
}

func (a *minMaxAcc) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if !a.seen {
		a.seen, a.best = true, v
		return nil
	}
	c := value.Compare(v, a.best)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = v
	}
	return nil
}

func (a *minMaxAcc) merge(o accumulator) error {
	b, ok := o.(*minMaxAcc)
	if !ok || a.min != b.min {
		return mergeTypeError(a, o)
	}
	if !b.seen {
		return nil
	}
	return a.add(b.best)
}

func (a *minMaxAcc) result() value.Value {
	if !a.seen {
		return value.Null
	}
	return a.best
}

// MergeCell combines two partial results of the distributive aggregate fn
// (sum, min or max), computed over disjoint row partitions, by folding both
// through fn's accumulator: NULL is the identity, integer sums stay
// integers and mixed numerics demote to float, exactly as one fold over
// the union of the partitions. The summary cache merges deltas with it.
func MergeCell(fn expr.AggFn, a, b value.Value) (value.Value, error) {
	acc, err := newAccumulator(&expr.AggCall{Fn: fn})
	if err != nil {
		return value.Null, err
	}
	if err := acc.add(a); err != nil {
		return value.Null, err
	}
	if err := acc.add(b); err != nil {
		return value.Null, err
	}
	return acc.result(), nil
}

// aggSpec pairs an aggregate call with its bound argument expression.
type aggSpec struct {
	call *expr.AggCall
	arg  expr.Expr // bound; nil for count(*)
}

// newAccs builds one group's accumulators, one per spec.
func newAccs(specs []aggSpec) ([]accumulator, error) {
	accs := make([]accumulator, len(specs))
	for i, s := range specs {
		acc, err := newAccumulator(s.call)
		if err != nil {
			return nil, err
		}
		accs[i] = acc
	}
	return accs, nil
}

// hashAggregate folds the input into one output row per group — the
// group-key values followed by one aggregate result per spec — in the
// first-appearance order of the groups. keyExprs are bound against the
// input schema. With no keys, a single global group is produced even for
// empty input (SQL semantics for aggregates without GROUP BY). The
// vectorized batch kernel runs when the pipeline shape allows it (batch.go);
// the scalar expression kernel otherwise. Both run on the partitioned fold
// driver (fold.go), under ec's parallelism, span and governor.
func hashAggregate(in iterator, keyExprs []expr.Expr, specs []aggSpec, ec execCtx) ([][]value.Value, error) {
	if ec.batch {
		// Unsupported shapes and injected core.batch faults report
		// handled=false and fall through to the scalar kernel.
		if out, handled, err := batchAggregate(in, keyExprs, specs, ec); handled {
			mGroupsEmitted.Add(int64(len(out)))
			return out, err
		}
	}
	k := &scalarKernel{in: in, keyExprs: keyExprs, specs: specs}
	f := &fold[string]{
		ec:      ec,
		rows:    -1,
		kernel:  k.fold,
		newAccs: func() ([]accumulator, error) { return newAccs(specs) },
		global:  len(keyExprs) == 0,
	}
	if ec.par == 1 {
		f.ops = func() *obs.Span { return operatorSpans(in) }
	} else {
		// Iterators reuse row buffers and are not safe to share across
		// goroutines, so the fold partitions a materialized copy. The copy
		// charges each row as it is built, so it stops at the budget, and
		// that charge is the fold's. The drain is where the operator
		// subtree's time is spent, so it attaches directly under the
		// aggregate span.
		input, err := materialize(in, ec.gov)
		if err != nil {
			return nil, err
		}
		if ec.span != nil {
			ec.span.AddChild(operatorSpans(in))
		}
		k.rows = input.rows
		f.rows = len(input.rows)
		f.prepaid = true
	}
	out, err := f.run()
	mGroupsEmitted.Add(int64(len(out)))
	return out, err
}

// scalarKernel is the row-at-a-time expression fold: it evaluates the
// bound group keys and aggregate arguments per row. At parallelism 1 it
// streams the input pipeline; otherwise each partition reads its slice of
// the materialized copy. Bound expression trees are immutable and
// stateless under Eval, so workers share them safely.
type scalarKernel struct {
	in       iterator
	rows     [][]value.Value // the materialized copy; nil when streaming
	keyExprs []expr.Expr
	specs    []aggSpec
}

func (k *scalarKernel) fold(p *foldPart[string], lo, hi int) error {
	in := k.in
	if k.rows != nil {
		in = &memRelation{rows: k.rows[lo:hi]}
	}
	keyVals := make([]value.Value, len(k.keyExprs))
	var box rowBox
	// pctvet:ok p.charge polls the governor (addRows, or check for a prepaid copy) every govStride rows; the analyzer does not resolve generic methods
	for {
		row, ok, err := in.next()
		if err != nil || !ok {
			return err
		}
		box.vals = row
		p.key = p.key[:0]
		for i, ke := range k.keyExprs {
			v, err := ke.Eval(&box)
			if err != nil {
				return err
			}
			keyVals[i] = v
			p.key = value.AppendKey(p.key, v)
		}
		g, ok := p.groups[string(p.key)]
		if !ok {
			if g, err = p.newGroup(string(p.key), append([]value.Value(nil), keyVals...)); err != nil {
				return err
			}
		}
		for i, s := range k.specs {
			var v value.Value
			if s.arg != nil {
				if v, err = s.arg.Eval(&box); err != nil {
					return err
				}
			}
			if err := g.accs[i].add(v); err != nil {
				return err
			}
		}
		var n int64
		if p.sized {
			n = estimateRowBytes(row)
		}
		if err := p.charge(n); err != nil {
			return err
		}
	}
}
