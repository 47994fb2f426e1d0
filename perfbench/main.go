// Command perfbench is the repository's benchmark. It loads seeded
// synthetic data, runs one workload in one process, checks every result and
// prints each metric by name with its unit and sample count. The last line
// of standard output is a JSON summary holding the end-to-end metrics
// BENCHMARK.json declares (or, with --trace 1, its per-layer metrics).
//
//	perfbench --workload paper_mix --seed 1 --seconds 20 --trace 0
//	perfbench --compare DIR_A DIR_B
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/pctagg"
)

// metric is one reported value. Ratios keep their numerator and base.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Num   float64 `json:"num,omitempty"`
	Den   float64 `json:"den,omitempty"`
	Base  string  `json:"base,omitempty"`
}

// report is one run's full result, written to the results directory.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Seconds   int      `json:"seconds"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
}

func (r *report) add(name, unit string, v float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

// ratio adds num/den; a ratio with an empty base is reported as 0.
func (r *report) ratio(name, unit string, num, den float64, base string) {
	v := 0.0
	if den > 0 {
		v = num / den
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: int(den), Num: num, Den: den, Base: base})
}

// latency adds <prefix>p50_ms and each of <prefix>p90_ms, p99_ms and
// p99.9_ms that has at least ten samples beyond it.
func (r *report) latency(prefix string, s samples) {
	if len(s) == 0 {
		return
	}
	ms := s.ms()
	r.add(prefix+"p50_ms", "ms", percentile(ms, 50), len(ms))
	for _, p := range []float64{90, 99, 99.9} {
		if reportable(len(ms), p) {
			r.add(fmt.Sprintf("%sp%g_ms", prefix, p), "ms", percentile(ms, p), len(ms))
		}
	}
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	rate     float64
	limit    time.Duration
	out      string
	log      func(string, ...any)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: paper_mix, dashboard_appends or serve_open_loop")
		seed     = flag.Int64("seed", 1, "seed for data, statement order, append contents and arrival times")
		seconds  = flag.Int("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 runs the traced decomposition and reports per-layer metrics")
		rate     = flag.Float64("serve-rate", 0, "serve_open_loop arrival rate, statements/s over both tenants")
		limitMs  = flag.Float64("serve-limit-ms", 0, "serve_open_loop latency limit in ms")
		capacity = flag.Bool("serve-capacity", false, "measure the serve mix's closed-loop capacity instead of running the open loop")
		out      = flag.String("out", filepath.Join(".bench_build", "perfbench", "results"), "directory for result and span files")
		compare  = flag.Bool("compare", false, "compare two directories of results: perfbench --compare A B")
	)
	flag.Parse()
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	if *compare {
		if flag.NArg() != 2 {
			logf("--compare needs two result directories")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, sp, flag.Arg(0), flag.Arg(1)); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		rate: *rate, limit: time.Duration(*limitMs * float64(time.Millisecond)),
		out: *out, log: logf}
	if *capacity {
		if err := serveCapacity(cfg); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Correct: true}
	err = run(cfg, rep)
	var ce *checkError
	if errors.As(err, &ce) {
		rep.Correct = false
		logf("%v", err)
	} else if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, sp, cfg, rep); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(cfg config, rep *report) error {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%v go=%s gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0))
	switch cfg.workload {
	case "paper_mix":
		return runClosed(cfg, rep, newPaperMix)
	case "dashboard_appends":
		return runClosed(cfg, rep, newDashboard)
	case "serve_open_loop":
		return runServe(cfg, rep)
	}
	return fmt.Errorf("unknown workload %q", cfg.workload)
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// setupMedian sets up reps times, closing all but the last, and returns the
// last environment with the median set-up and load times in seconds.
func setupMedian[E any](reps int, open func() (E, time.Duration, error), close func(E)) (E, float64, float64, error) {
	var env E
	var setups, loads []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			close(env)
			var zero E
			env = zero
			runtime.GC()
		}
		t0 := time.Now()
		e, ld, err := open()
		if err != nil {
			return env, 0, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, ld.Seconds())
		env = e
	}
	return env, median(setups), median(loads), nil
}

// runClosed runs an in-process workload. Untraced, it measures the whole
// window. Traced, it measures half the window untraced, then replays the
// same operations through the decomposed path with spans.
func runClosed(cfg config, rep *report, mk func(int64) *closedLoop) error {
	w := mk(cfg.seed)
	reps := setupReps
	dur := time.Duration(cfg.seconds) * time.Second
	minCycles := w.minCycles
	if cfg.trace {
		reps, dur, minCycles = 1, dur/2, 1
	}
	db, setupS, loadS, err := setupMedian(reps, func() (*pctagg.DB, time.Duration, error) {
		return w.open(cfg.seed)
	}, func(*pctagg.DB) {})
	if err != nil {
		return err
	}
	var peak heapPeak
	r, err := w.measure(db, dur, minCycles, &peak, cfg.log)
	if err != nil {
		return err
	}
	rep.Attempted, rep.Failed = r.attempted, r.failed
	if w.final != nil {
		if err := w.final(db); err != nil {
			return err
		}
	}
	rep.add("workload.load_s", "s", loadS, reps)
	if !cfg.trace {
		rep.add("setup_s", "s", setupS, reps)
		rep.add("peak_heap_mb", "MB", peak.mb(), r.attempted)
		rep.ratio("failed_share", "share", float64(r.failed), float64(r.attempted), "operations attempted")
		qps := float64(len(r.all)) / r.wall.Seconds()
		rep.add("queries_per_s", "1/s", qps, len(r.all))
		rep.add("goodput_per_s", "1/s", qps, len(r.all))
		rep.latency("", r.all)
		rep.latency("vpct.", r.byKind["vpct"])
		rep.latency("hpct.", r.byKind["hpct"])
		for _, k := range []string{"hagg", "cube", "append"} {
			if s := r.byKind[k]; len(s) > 0 {
				rep.add(k+".p50_ms", "ms", percentile(s.ms(), 50), len(s))
			}
		}
	}
	layerMetrics(rep, r.win, len(r.ops), r.appends)
	if !cfg.trace {
		return nil
	}
	db = nil
	runtime.GC()
	tr, err := w.replay(cfg.seed, r.ops)
	if err != nil {
		return err
	}
	var untraced time.Duration
	for _, l := range r.lat {
		untraced += l
	}
	if err := traceMetrics(rep, tr, untraced); err != nil {
		return err
	}
	return writeSpans(filepath.Join(cfg.out, fmt.Sprintf("%s.seed%d.spans.jsonl", cfg.workload, cfg.seed)), tr.tr.snapshot())
}

// runServe runs serve_open_loop. Untraced, it plays a schedule of the whole
// window. Traced, it plays half the window untraced, then the same schedule
// again with spans.
func runServe(cfg config, rep *report) error {
	if cfg.rate <= 0 || cfg.limit <= 0 {
		return fmt.Errorf("serve_open_loop needs --serve-rate and --serve-limit-ms")
	}
	reads := serveReads()
	reps := setupReps
	dur := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		reps, dur = 1, dur/2
	}
	env, setupS, loadS, err := setupMedian(reps, func() (*serveEnv, time.Duration, error) {
		return openServe(cfg.seed, reads)
	}, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	reqs := serveSchedule(cfg.seed, cfg.rate, dur, reads)
	var peak heapPeak
	runtime.GC()
	before := takeSnap(env.db.SummaryCacheStats())
	outs, err := env.run(reqs, nil, &peak)
	win := diff(before, takeSnap(env.db.SummaryCacheStats()))
	if err != nil {
		return err
	}
	st := summarize(outs, cfg.limit)
	rep.Attempted, rep.Failed = len(outs), st.failed
	for _, o := range outs {
		if o.err != nil {
			cfg.log("operation failed: %s: %v", o.req.sql, o.err)
		}
	}
	appends := len(st.byKind["append"])
	rep.add("workload.load_s", "s", loadS, reps)
	if !cfg.trace {
		rep.add("setup_s", "s", setupS, reps)
		rep.add("peak_heap_mb", "MB", peak.mb(), len(outs))
		rep.ratio("failed_share", "share", float64(st.failed), float64(len(outs)), "requests attempted")
		good := float64(st.within) / st.window.Seconds()
		rep.add("serve.goodput_qps", "1/s", good, len(outs))
		rep.add("goodput_per_s", "1/s", good, len(outs))
		rep.latency("serve.", st.all)
		rep.latency("", st.all)
		rep.latency("vpct.", st.byKind["vpct"])
		for _, k := range []string{"plain", "proj", "append"} {
			if s := st.byKind[k]; len(s) > 0 {
				rep.add(k+".p50_ms", "ms", percentile(s.ms(), 50), len(s))
			}
		}
	}
	layerMetrics(rep, win, len(outs), appends)
	qw := win.h["server.queue_wait_ns"]
	rep.add("server.queue_wait_ms.p50", "ms", qw.quantileMs(0.5), int(qw.count)) // pctvet:ok benchmark metric, not a registry name
	rep.add("server.queue_wait_ms.p90", "ms", qw.quantileMs(0.9), int(qw.count)) // pctvet:ok benchmark metric, not a registry name
	sm := win.h["server.statement_ns"]
	rep.add("server.statement_ms", "ms", sm.quantileMs(0.5), int(sm.count)) // pctvet:ok benchmark metric, not a registry name
	// Wire and admission: the mean client call minus the mean server-side
	// statement. Means, because the histogram's p50 is a bucket estimate
	// too coarse to subtract.
	if len(st.do) > 0 && sm.count > 0 {
		var do time.Duration
		for _, d := range st.do {
			do += d
		}
		over := float64(do)/float64(len(st.do))/1e6 - float64(sm.sum)/float64(sm.count)/1e6
		rep.add("server.overhead_ms", "ms", over, len(st.do)) // pctvet:ok benchmark metric, not a registry name
	}
	rejected := win.c["server.rejected.queue_full"] + win.c["server.rejected.tenant_cap"] + win.c["server.rejected.drain"]
	rep.ratio("server.rejected_share", "share", float64(rejected), float64(len(outs)), "requests attempted") // pctvet:ok benchmark metric, not a registry name
	rep.latency("loadgen.late_", st.late)
	if !cfg.trace {
		return nil
	}
	tr := newTracer()
	touts, err := env.run(reqs, tr, &peak)
	if err != nil {
		return err
	}
	var untraced, traced time.Duration
	for i := range outs {
		untraced += outs[i].latency()
		traced += touts[i].latency()
	}
	run := &tracedRun{tr: tr, kinds: map[int64]string{}, wall: traced}
	for i := range reqs {
		run.kinds[int64(i+1)] = reqs[i].kind()
	}
	if err := traceMetrics(rep, run, untraced); err != nil {
		return err
	}
	return writeSpans(filepath.Join(cfg.out, fmt.Sprintf("%s.seed%d.spans.jsonl", cfg.workload, cfg.seed)), tr.snapshot())
}

// serveCapacity prints the serve mix's closed-loop capacity.
func serveCapacity(cfg config) error {
	reads := serveReads()
	env, _, err := openServe(cfg.seed, reads)
	if err != nil {
		return err
	}
	defer env.close()
	qps, err := env.capacity(cfg.seed, reads, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("serve closed-loop capacity: %.1f statements/s on %d connections\n", qps, serveTenants)
	return nil
}

// emit prints every metric, writes the run's result file and prints the
// JSON summary line with the metrics BENCHMARK.json declares for the mode.
func emit(w *os.File, sp *spec, cfg config, rep *report) error {
	for _, m := range rep.Metrics {
		line := fmt.Sprintf("metric %-36s %14.6g %-6s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Base != "" {
			line += fmt.Sprintf("  (%.6g / %.6g %s)", m.Num, m.Den, m.Base)
		}
		fmt.Fprintln(w, line)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s.seed%d.trace%d.json", rep.Workload, rep.Seed, map[bool]int{false: 0, true: 1}[rep.Trace])
	if err := os.WriteFile(filepath.Join(cfg.out, name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	declared := sp.EndToEnd
	if cfg.trace {
		declared = sp.PerLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]val{}
	var missing []string
	for _, d := range declared {
		m, ok := rep.get(d.Name)
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = val{m.Value, d.Unit}
	}
	if len(missing) > 0 && rep.Correct {
		return fmt.Errorf("declared metrics not measured: %s", strings.Join(missing, ", "))
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}
