package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// The partitioned fold. Every aggregation in the system — the scalar
// expression fold, the vectorized batch fold and the native hash pivot —
// is one operation: fold per-group accumulators over contiguous row
// partitions, then merge the partials. This file owns that operation; the
// kernels (aggregate.go, batch.go, pivot.go) only map one partition's rows
// to groups and feed their accumulators.
//
// The merge visits partitions in ascending order and appends each
// partition's locally-new groups in their local first-appearance order.
// Because a group's global first occurrence lies in its lowest-numbered
// partition, and rows within a partition keep the input order, the merged
// output is row-for-row the sequential fold's first-appearance order. The
// merge is valid because every accumulator is distributive or carries its
// distributive parts (aggregate.go): add(r1…rn) ≡ add(r1…rk).merge(add(rk+1…rn)).
//
// Governance is the same for every kernel and every worker count: each
// folded input row is charged to MaxRows exactly once and, when a MaxBytes
// limit is set, its estimateRowBytes once too; the MaxGroups charge is the
// exact number of distinct groups. A kernel that folds a materialized copy
// was charged for each row as the copy was built (prepaid), which caps the
// copy itself at the budget.

// autoParallelMinRows gates the automatic mode (parallelism <= 0): below
// this many input rows the goroutine spawn and merge overhead outweighs the
// scan, so the sequential path runs instead. An explicit parallelism > 1
// bypasses the gate.
const autoParallelMinRows = 8192

// resolveWorkers is the worker-count policy, following
// core.Options.Parallelism semantics: 1 → sequential; 0 (or negative) →
// one worker per CPU (GOMAXPROCS), sequential below autoParallelMinRows;
// n > 1 → exactly n workers (forced even on tiny inputs, which is what lets
// the differential tests exercise the partitioned path on hand-sized
// fixtures). The count is capped by the row count and is at least 1.
func resolveWorkers(parallelism, rows int) int {
	w := parallelism
	switch {
	case w == 1:
		return 1
	case w <= 0:
		if rows < autoParallelMinRows {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > rows {
		w = rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// group is one group's fold state: its key values and one accumulator per
// output column. A nil accumulator is a cell no row has reached yet (the
// hash pivot creates its cells lazily); it renders as NULL.
type group struct {
	keyVals []value.Value
	accs    []accumulator
}

// fold is one partitioned fold over rows input rows, generic over the
// group-key type K.
type fold[K comparable] struct {
	ec execCtx
	// rows is the input row count; -1 when the kernel streams an input of
	// unknown length, which only happens at parallelism 1.
	rows int
	// kernel folds the input rows [lo, hi) into p (a streaming kernel
	// ignores the bounds).
	kernel func(p *foldPart[K], lo, hi int) error
	// newAccs builds a new group's accumulators.
	newAccs func() ([]accumulator, error)
	// global asks for one group over empty input: an aggregate without
	// GROUP BY yields a row even when no row was folded.
	global bool
	// ops, when set, renders the input operator subtree's spans. A
	// sequential fold drains the pipeline itself, so the subtree nests under
	// its fold span; a fan-out attaches it beside the workers.
	ops func() *obs.Span
	// stored estimates stored input row r's bytes for kernels that read a
	// table's column vectors (chargeStored).
	stored func(r int) int64
	// prepaid marks input rows already charged when they were materialized;
	// folding them then only polls for cancellation.
	prepaid bool
	// kernelName, when set, is recorded as the spans' kernel attribute.
	kernelName string
	// foldSpan names the sequential fold's span ("fold" when empty).
	foldSpan string
	// workers is the worker count the fold ran with (set by run).
	workers int
}

// foldPart is one partition's fold state. Kernels look groups up in
// groups, create them with newGroup, and call charge once per folded row.
type foldPart[K comparable] struct {
	f      *fold[K]
	gov    *governor
	groups map[K]*group
	order  []K // local first-appearance order
	// shared marks a partition of a fan-out. Its groups are charged
	// exactly at the merge; until then room is how many groups it may hold
	// before the statement's MaxGroups is certainly exceeded (-1: no
	// limit). A sequential fold's partition charges each group as it
	// appears.
	shared bool
	room   int64
	// sized is set when a MaxBytes limit is in force and the input is not
	// prepaid: kernels then pass each folded row's estimated bytes to
	// charge.
	sized bool
	// rows and bytes are folded rows (and their bytes) not yet charged.
	rows, bytes int64
	// key is kernel scratch: a group-key encoding buffer.
	key []byte
}

func (f *fold[K]) newPart(gov *governor, shared bool) *foldPart[K] {
	p := &foldPart[K]{f: f, gov: gov, groups: make(map[K]*group), shared: shared, room: -1}
	if gov != nil {
		p.sized = gov.lim.MaxBytes > 0 && !f.prepaid
		if shared {
			p.room = gov.groupRoom()
		}
	}
	return p
}

// newGroup creates and registers the group for key k. keyVals is owned by
// the group from here on.
func (p *foldPart[K]) newGroup(k K, keyVals []value.Value) (*group, error) {
	if !p.shared {
		if err := p.gov.addGroups(1); err != nil {
			return nil, err
		}
	} else if p.room >= 0 && int64(len(p.order)) >= p.room {
		// This partition alone holds more distinct groups than the budget
		// has left, so the merged total would too.
		return nil, p.gov.groupLimitError()
	}
	accs, err := p.f.newAccs()
	if err != nil {
		return nil, err
	}
	g := &group{keyVals: keyVals, accs: accs}
	p.groups[k] = g
	p.order = append(p.order, k)
	return g, nil
}

// charge counts one folded input row of n estimated bytes (n is 0 unless
// sized), flushing to the governor once per govStride rows.
func (p *foldPart[K]) charge(n int64) error {
	p.rows++
	p.bytes += n
	if p.rows < govStride {
		return nil
	}
	return p.flush()
}

// chargeStored charges stored input row r as one folded input row.
func (p *foldPart[K]) chargeStored(r int) error {
	var n int64
	if p.sized {
		n = p.f.stored(r)
	}
	return p.charge(n)
}

// flush charges the pending rows and bytes and checks cancellation.
func (p *foldPart[K]) flush() error {
	rows, bytes := p.rows, p.bytes
	p.rows, p.bytes = 0, 0
	if p.f.prepaid {
		return p.gov.check()
	}
	if err := p.gov.addRows(rows); err != nil {
		return err
	}
	return p.gov.addBytes(bytes)
}

// runPart runs the kernel over one partition and settles its charges.
func (f *fold[K]) runPart(p *foldPart[K], lo, hi int) error {
	if err := f.kernel(p, lo, hi); err != nil {
		return err
	}
	return p.flush()
}

// run executes the fold: worker count, sequential fold or fan-out, merge,
// and rendering. Output rows are the group-key values followed by one
// result per accumulator, in first-appearance order.
func (f *fold[K]) run() ([][]value.Value, error) {
	ec := f.ec
	workers := 1
	if f.rows >= 0 {
		workers = resolveWorkers(ec.par, f.rows)
	}
	switch {
	case ec.par == 1:
	case workers == 1:
		mAggSeqFallback.Inc()
		ec.span.Attr("fallback", "sequential (below parallel threshold)")
	default:
		mAggParallel.Inc()
		if ec.rec != nil {
			// Written before fan-out and read after the statement
			// completes, both on the statement goroutine.
			ec.rec.parallel = true
		}
	}
	f.workers = workers
	if workers == 1 {
		return f.sequential()
	}
	return f.fanOut(workers)
}

func (f *fold[K]) sequential() ([][]value.Value, error) {
	name := f.foldSpan
	if name == "" {
		name = "fold"
	}
	sp := f.ec.span.NewChild(name)
	if f.kernelName != "" {
		sp.Attr("kernel", f.kernelName)
	}
	p := f.newPart(f.ec.gov, false)
	err := f.runPart(p, 0, f.rows)
	sp.End()
	in := int64(f.rows)
	if f.ops != nil {
		in = -1 // the operator subtree below carries the input rows
		if sp != nil {
			sp.AddChild(f.ops())
		}
	}
	if err != nil {
		sp.Attr("error", err.Error())
		sp.SetRows(in, 0)
		return nil, err
	}
	out, err := f.render(p.groups, p.order)
	sp.SetRows(in, int64(len(out)))
	return out, err
}

// fanOut folds workers contiguous partitions concurrently and merges them.
//
// Lifecycle: each worker runs under a cancel context derived from the
// statement's governor, recovers its own panics into a typed error, and
// cancels the siblings on any failure — the first error stops the fan-out
// within one governor stride instead of letting the other workers fold to
// completion. Error selection stays deterministic (partitionError).
func (f *fold[K]) fanOut(workers int) ([][]value.Value, error) {
	ec := f.ec
	if f.ops != nil && ec.span != nil {
		ec.span.AddChild(f.ops())
	}
	fan := ec.span.NewChild("partition fan-out")
	if fan != nil {
		fan.Concurrent = true
		fan.AttrInt("workers", int64(workers))
		if f.kernelName != "" {
			fan.Attr("kernel", f.kernelName)
		}
	}
	cancel := func() {}
	wgov := ec.gov
	if ec.gov != nil && ec.gov.ctx != nil {
		var wctx context.Context
		wctx, cancel = context.WithCancel(ec.gov.ctx)
		defer cancel()
		wgov = ec.gov.withCtx(wctx)
	}
	parts := make([]*foldPart[K], workers)
	errs := make([]error, workers)
	chunk := (f.rows + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := min(w*chunk, f.rows), min((w+1)*chunk, f.rows)
		parts[w] = f.newPart(wgov, true)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var ws *obs.Span
			if fan != nil {
				ws = fan.NewChild(fmt.Sprintf("worker %d/%d", w+1, workers))
			}
			defer func() {
				if r := recover(); r != nil {
					errs[w] = NewPanicError(fmt.Sprintf("partition worker %d/%d", w+1, workers), r)
				}
				if errs[w] != nil {
					ws.Attr("error", errs[w].Error())
					cancel()
				}
				ws.End()
				ws.SetRows(int64(hi-lo), int64(len(parts[w].order)))
			}()
			if err := chaos.HitN(chaos.AggWorker, w+1); err != nil {
				errs[w] = err
				return
			}
			errs[w] = f.runPart(parts[w], lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	fan.End()

	ms := ec.span.NewChild("merge")
	defer ms.End()
	if err := partitionError(errs); err != nil {
		ms.Attr("error", err.Error())
		return nil, err
	}
	if err := chaos.Hit(chaos.AggMerge); err != nil {
		return nil, err
	}
	groups, order := parts[0].groups, parts[0].order
	for _, p := range parts[1:] {
		for _, k := range p.order {
			g := p.groups[k]
			tgt, ok := groups[k]
			if !ok {
				groups[k] = g
				order = append(order, k)
				continue
			}
			for i, acc := range g.accs {
				switch {
				case acc == nil:
				case tgt.accs[i] == nil:
					tgt.accs[i] = acc
				default:
					if err := tgt.accs[i].merge(acc); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	// The workers only bounded their own group counts; charge the exact
	// number of distinct groups now that it is known.
	if err := ec.gov.addGroups(int64(len(order))); err != nil {
		return nil, err
	}
	out, err := f.render(groups, order)
	ms.SetRows(int64(f.rows), int64(len(out)))
	return out, err
}

// render emits one row per group in order, adding the empty-input global
// group when asked for.
func (f *fold[K]) render(groups map[K]*group, order []K) ([][]value.Value, error) {
	if f.global && len(order) == 0 {
		accs, err := f.newAccs()
		if err != nil {
			return nil, err
		}
		var zero K
		groups[zero] = &group{accs: accs}
		order = append(order, zero)
	}
	out := make([][]value.Value, 0, len(order))
	for _, k := range order {
		g := groups[k]
		row := make([]value.Value, 0, len(g.keyVals)+len(g.accs))
		row = append(row, g.keyVals...)
		for _, acc := range g.accs {
			if acc == nil {
				row = append(row, value.Null)
			} else {
				row = append(row, acc.result())
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// storedRowBytes returns estimateRowBytes of stored row r of tab, read
// from the column vectors without boxing the row: 24 per column plus the
// payload of each non-NULL string.
func storedRowBytes(tab *storage.Table) func(r int) int64 {
	type strCol struct {
		vals   []string
		isNull func(int) bool
	}
	var strs []strCol
	for c := 0; c < tab.NumCols(); c++ {
		if vals, isNull, ok := tab.StringColumn(c); ok {
			strs = append(strs, strCol{vals, isNull})
		}
	}
	fixed := int64(tab.NumCols()) * 24
	return func(r int) int64 {
		n := fixed
		for _, c := range strs {
			if !c.isNull(r) {
				n += int64(len(c.vals[r]))
			}
		}
		return n
	}
}

// partitionError selects the error a failed fan-out reports: the
// lowest-numbered partition's non-cancellation error — so a failing query
// reports the same error no matter how many workers raced past the failing
// row — falling back to the first cancellation when nothing but
// sibling-cancel noise remains.
func partitionError(errs []error) error {
	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var c *CancelledError
		if errors.As(err, &c) {
			if firstCancel == nil {
				firstCancel = err
			}
			continue
		}
		return err
	}
	return firstCancel
}
