package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/workload"
	"repro/pctagg"
)

// closedLoop is an in-process workload: one client sends the next
// statement when the previous one has returned.
type closedLoop struct {
	tables []string    // data sets to load: "employee", "sales"
	cache  bool        // summary cache on
	warm   []statement // run once at set-up (fills the cache)
	next   func() []op // the next cycle of operations, in seeded order
	// minCycles is the least number of cycles a timed run measures, so the
	// p90 of every run has at least ten samples beyond it.
	minCycles int
	// final runs after the timed window (the dashboard's cached-vs-cold
	// comparison).
	final func(db *pctagg.DB) error
}

func newPaperMix(seed int64) *closedLoop {
	mix := paperMix()
	rng := rand.New(rand.NewSource(seed))
	return &closedLoop{
		tables:    []string{"employee", "sales"},
		next:      func() []op { return paperCycle(rng, mix) },
		minCycles: 5,
	}
}

func newDashboard(seed int64) *closedLoop {
	vpct, cube, hpct, hagg := dashboard()
	rng := rand.New(rand.NewSource(seed))
	app := &salesAppender{table: "sales", nextID: salesRows, card: salesCards()}
	all := append(append(append([]statement{}, vpct...), cube...), hpct, hagg)
	return &closedLoop{
		tables:    []string{"sales"},
		cache:     true,
		warm:      all,
		next:      func() []op { return dashCycle(rng, app, vpct, cube, &hpct, &hagg) },
		minCycles: 1,
		final:     func(db *pctagg.DB) error { return cachedEqualsCold(db, all) },
	}
}

// load generates and loads the data sets, returning the time spent in the
// workload loaders.
func load(cat *storage.Catalog, tables []string, seed int64) (time.Duration, error) {
	start := time.Now()
	for _, t := range tables {
		var err error
		switch t {
		case "employee":
			_, err = workload.LoadEmployee(cat, "employee", employeeRows, seed)
		case "sales":
			_, err = workload.LoadSales(cat, "sales", salesRows, salesCards(), seed+1)
		default:
			err = fmt.Errorf("unknown data set %q", t)
		}
		if err != nil {
			return 0, fmt.Errorf("load %s: %w", t, err)
		}
	}
	return time.Since(start), nil
}

// open sets up one in-process database: load, cache, warm-up.
func (w *closedLoop) open(seed int64) (*pctagg.DB, time.Duration, error) {
	db := pctagg.Open()
	ld, err := load(db.Engine().Catalog(), w.tables, seed)
	if err != nil {
		return nil, 0, err
	}
	db.EnableSummaryCache(w.cache)
	for _, st := range w.warm {
		rows, err := db.Query(st.sql)
		if err != nil {
			return nil, 0, fmt.Errorf("warm-up %s: %w", st.sql, err)
		}
		if err := st.chk.verify(rows.Data); err != nil {
			return nil, 0, &checkError{st.sql, err}
		}
	}
	return db, ld, nil
}

// checkError is a failed result check. It fails the command; it is not a
// failed operation.
type checkError struct {
	sql string
	err error
}

func (e *checkError) Error() string { return fmt.Sprintf("check failed for %q: %v", e.sql, e.err) }

// closedRun is what one timed closed-loop window observed.
type closedRun struct {
	ops       []op
	lat       []time.Duration // per op, in order
	byKind    map[string]samples
	all       samples
	attempted int
	failed    int
	appends   int
	wall      time.Duration // window minus the benchmark's own checking
	win       window
}

// measure runs whole cycles until at least dur has passed and at least
// minCycles cycles ran, timing each pctagg call.
func (w *closedLoop) measure(db *pctagg.DB, dur time.Duration, minCycles int, peak *heapPeak, log func(string, ...any)) (*closedRun, error) {
	run := &closedRun{byKind: map[string]samples{}}
	runtime.GC()
	before := takeSnap(db.SummaryCacheStats())
	start := time.Now()
	var own time.Duration
	for c := 0; c < minCycles || time.Since(start) < dur; c++ {
		for _, o := range w.next() {
			t0 := time.Now()
			var rows *pctagg.Rows
			var err error
			if o.st == nil {
				_, err = db.Exec(o.sql)
			} else {
				rows, err = db.Query(o.sql)
			}
			lat := time.Since(t0)
			t1 := time.Now()
			run.ops = append(run.ops, o)
			run.lat = append(run.lat, lat)
			run.attempted++
			if o.st == nil {
				run.appends++
			}
			if err != nil {
				run.failed++
				log("operation failed: %s: %v", o.sql, err)
			} else {
				run.byKind[o.kind()] = append(run.byKind[o.kind()], lat)
				run.all = append(run.all, lat)
				if o.st != nil {
					if err := o.st.chk.verify(rows.Data); err != nil {
						return nil, &checkError{o.sql, err}
					}
				}
			}
			peak.sample()
			own += time.Since(t1)
		}
	}
	run.wall = time.Since(start) - own
	run.win = diff(before, takeSnap(db.SummaryCacheStats()))
	return run, nil
}

// cachedEqualsCold checks that every cached result equals a cold recompute
// after FlushSummaries.
func cachedEqualsCold(db *pctagg.DB, stmts []statement) error {
	cached := make([]*pctagg.Rows, len(stmts))
	for i, st := range stmts {
		rows, err := db.Query(st.sql)
		if err != nil {
			return fmt.Errorf("cached %s: %w", st.sql, err)
		}
		cached[i] = rows
	}
	db.FlushSummaries()
	for i, st := range stmts {
		rows, err := db.Query(st.sql)
		if err != nil {
			return fmt.Errorf("cold %s: %w", st.sql, err)
		}
		if err := identical(cached[i].Columns, rows.Columns, cached[i].Data, rows.Data); err != nil {
			return &checkError{st.sql, fmt.Errorf("cached result differs from cold recompute: %v", err)}
		}
	}
	return nil
}

// defaultOptions are the planner options pctagg.DB plans with under
// DefaultStrategies (subkey indexes on, everything else off), parallelism 0
// and no limits. The traced run's equivalence check proves they match.
func defaultOptions() core.Options {
	return core.Options{
		Vpct: core.VpctOptions{SubkeyIndexes: true},
		Hpct: core.HpctOptions{Vpct: core.VpctOptions{SubkeyIndexes: true}},
		Hagg: core.HaggOptions{Method: core.HaggCASE},
	}
}

// subject runs statements through the layers' public functions one call
// at a time: sqlparse.Parse, core.Planner.Plan, ExecuteSteps, the plan's
// FinalSelect through engine.Engine.ExecSQLP, and CleanupPlan — the path
// pctagg.DB.Query takes.
type subject struct {
	eng     *engine.Engine
	planner *core.Planner
	opts    core.Options
}

func (w *closedLoop) openSubject(seed int64) (*subject, error) {
	db := pctagg.Open() // for the engine configuration Open applies
	if _, err := load(db.Engine().Catalog(), w.tables, seed); err != nil {
		return nil, err
	}
	s := &subject{eng: db.Engine(), planner: core.NewPlanner(db.Engine()), opts: defaultOptions()}
	s.planner.ShareSummaries(w.cache)
	tr := newTracer()
	for _, st := range w.warm {
		if _, _, err := s.query(tr, 0, 0, st.sql); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", st.sql, err)
		}
	}
	return s, nil
}

// query runs one SELECT through the decomposed path, recording a span
// around each call. It returns the rows and the plan's result width N.
func (s *subject) query(tr *tracer, req, root int64, sql string) (*engine.Result, int, error) {
	id := tr.begin(req, root, "parse")
	stmt, err := sqlparse.Parse(sql)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		return nil, 0, fmt.Errorf("not a SELECT: %s", sql)
	}
	id = tr.begin(req, root, "plan")
	plan, err := s.planner.Plan(sel, s.opts)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = tr.begin(req, root, "exec")
	_, err = s.planner.ExecuteSteps(plan)
	tr.end(id)
	var res *engine.Result
	if err == nil {
		id = tr.begin(req, root, "final")
		res, err = s.eng.ExecSQLP(plan.FinalSelect, plan.Parallelism)
		tr.end(id)
	}
	id = tr.begin(req, root, "cleanup")
	s.planner.CleanupPlan(plan)
	tr.end(id)
	return res, plan.N, err
}

// tracedRun is what the traced replay observed.
type tracedRun struct {
	tr    *tracer
	kinds map[int64]string // request → op type
	wall  time.Duration    // sum of statement root spans
	width []int            // plan.N of horizontal plans
}

// replay runs ops through the decomposed subject with spans, and each one
// also through a reference pctagg.DB, asserting identical rows.
func (w *closedLoop) replay(seed int64, ops []op) (*tracedRun, error) {
	subj, err := w.openSubject(seed)
	if err != nil {
		return nil, err
	}
	ref, _, err := w.open(seed)
	if err != nil {
		return nil, err
	}
	run := &tracedRun{tr: newTracer(), kinds: map[int64]string{}}
	tr := run.tr
	for i, o := range ops {
		req := int64(i + 1)
		run.kinds[req] = o.kind()
		t0 := time.Now()
		root := tr.begin(req, 0, "statement")
		if o.st == nil {
			id := tr.begin(req, root, "append")
			_, err := subj.eng.ExecSQL(o.sql)
			tr.end(id)
			tr.end(root)
			run.wall += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("traced append: %w", err)
			}
			if _, err := ref.Exec(o.sql); err != nil {
				return nil, fmt.Errorf("reference append: %w", err)
			}
			continue
		}
		res, n, err := subj.query(tr, req, root, o.sql)
		var rows [][]any
		if err == nil {
			rows = engineRows(res)
		}
		tr.end(root)
		run.wall += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", o.sql, err)
		}
		if o.st.op == "hpct" || o.st.op == "hagg" {
			run.width = append(run.width, n)
		}
		want, err := ref.Query(o.sql)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", o.sql, err)
		}
		if err := identical(res.Columns, want.Columns, rows, want.Data); err != nil {
			return nil, &checkError{o.sql, fmt.Errorf("decomposed path differs from pctagg.Query: %v", err)}
		}
		if err := o.st.chk.verify(rows); err != nil {
			return nil, &checkError{o.sql, err}
		}
	}
	return run, nil
}

// traceMetrics derives the per-layer self times of a traced replay.
// untraced is the summed latency of the same operations without tracing.
func traceMetrics(r *report, run *tracedRun, untraced time.Duration) error {
	spans := run.tr.snapshot()
	self, err := selfTimes(spans)
	if err != nil {
		return err
	}
	per := layerSelf(spans, self)
	layerTotal := map[string]int64{}
	byOp := map[string]map[string]samples{} // layer → op → self times
	var parse samples
	var rootTotal int64
	for _, s := range spans {
		if s.Parent == 0 {
			rootTotal += s.End - s.Start
		}
	}
	reqs := make([]int64, 0, len(per))
	for req := range per {
		reqs = append(reqs, req)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	for _, req := range reqs {
		kind := run.kinds[req]
		for layer, ns := range per[req] {
			layerTotal[layer] += ns
			if layer == "" {
				continue
			}
			if layer == "parse" {
				parse = append(parse, time.Duration(ns))
			}
			if byOp[layer] == nil {
				byOp[layer] = map[string]samples{}
			}
			byOp[layer][kind] = append(byOp[layer][kind], time.Duration(ns))
		}
	}
	if len(parse) > 0 {
		us := parse.ms()
		r.add("sqlparse.parse_us", "us", percentile(us, 50)*1000, len(us))
	}
	for _, layer := range []string{"plan", "exec", "final", "cleanup"} {
		for _, kind := range sortedKeys(byOp[layer]) {
			ms := byOp[layer][kind].ms()
			r.add(fmt.Sprintf("core.%s_ms.%s", layer, kind), "ms", percentile(ms, 50), len(ms))
		}
	}
	if a := byOp["append"]["append"]; len(a) > 0 {
		ms := a.ms()
		r.add("engine.append_ms", "ms", percentile(ms, 50), len(ms)) // pctvet:ok benchmark metric, not a registry name
	}
	if len(run.width) > 0 {
		var sum int
		for _, n := range run.width {
			sum += n
		}
		r.ratio("core.hpct_columns", "count", float64(sum), float64(len(run.width)), "horizontal plans") // pctvet:ok benchmark metric, not a registry name
	}
	for _, layer := range sortedKeys(layerTotal) {
		if layer != "" {
			r.ratio("trace.self_share."+layer, "share", float64(layerTotal[layer]), float64(rootTotal), "statement wall ns")
		}
	}
	r.ratio("trace.unattributed_share", "share", float64(layerTotal[""]), float64(rootTotal), "statement wall ns")
	r.ratio("trace.overhead_share", "share", float64(run.wall-untraced), float64(untraced), "untraced wall ns")
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
