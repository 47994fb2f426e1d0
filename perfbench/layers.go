package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// The program's own counters and histograms the benchmark reads before
// and after a measured window.
var (
	counterNames = []string{
		"engine.rows.scanned", "engine.statements", "engine.groups.emitted",
		"engine.join.builds", "engine.join.index_reuse",
		"engine.agg.parallel", "engine.agg.seq_fallback",
		"core.plans", "core.steps",
		"batch.fold.rows", "batch.fallbacks", "batch.pivot.fallbacks",
		"batch.pool.gets", "batch.pool.hits",
		"server.admitted", "server.rejected.queue_full",
		"server.rejected.tenant_cap", "server.rejected.drain",
	}
	histNames = []string{"engine.statement.ns", "server.queue_wait_ns", "server.statement_ns"}
)

// hist is a histogram's state: bucket counts, sample count and sum (ns).
type hist struct {
	buckets    []int64
	count, sum int64
}

// snap is the program state one measured window starts or ends with.
type snap struct {
	counters map[string]int64
	hists    map[string]hist
	cache    core.CacheStats
	mem      runtime.MemStats
}

func takeSnap(cache core.CacheStats) snap {
	s := snap{counters: map[string]int64{}, hists: map[string]hist{}, cache: cache}
	for _, n := range counterNames {
		s.counters[n] = obs.Default.Counter(n).Value()
	}
	for _, n := range histNames {
		h := obs.Default.Histogram(n)
		st := hist{count: h.Count(), sum: h.Sum()}
		for i := 0; i < obs.NumBuckets(); i++ {
			st.buckets = append(st.buckets, h.Bucket(i))
		}
		s.hists[n] = st
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// window is the difference between two snapshots.
type window struct {
	c     map[string]int64
	h     map[string]hist
	cache core.CacheStats
	alloc uint64 // bytes allocated
	gcs   uint32 // completed GC cycles
}

func diff(a, b snap) window {
	w := window{c: map[string]int64{}, h: map[string]hist{}}
	for n, v := range b.counters {
		w.c[n] = v - a.counters[n]
	}
	for n, hb := range b.hists {
		ha := a.hists[n]
		d := hist{count: hb.count - ha.count, sum: hb.sum - ha.sum}
		for i := range hb.buckets {
			d.buckets = append(d.buckets, hb.buckets[i]-ha.buckets[i])
		}
		w.h[n] = d
	}
	ca, cb := a.cache, b.cache
	w.cache = core.CacheStats{
		Hits: cb.Hits - ca.Hits, Misses: cb.Misses - ca.Misses,
		Invalidations:       cb.Invalidations - ca.Invalidations,
		DeltaApplied:        cb.DeltaApplied - ca.DeltaApplied,
		LatticePlans:        cb.LatticePlans - ca.LatticePlans,
		LatticeFinestReused: cb.LatticeFinestReused - ca.LatticeFinestReused,
	}
	w.alloc = b.mem.TotalAlloc - a.mem.TotalAlloc
	w.gcs = b.mem.NumGC - a.mem.NumGC
	return w
}

// quantileMs estimates the q-quantile of a histogram window in ms,
// interpolating linearly inside the power-of-two bucket the rank lands in
// (the same rule as obs.Histogram.Quantile).
func (h hist) quantileMs(q float64) float64 {
	if h.count <= 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	if float64(target) < q*float64(h.count) || target == 0 {
		target++
	}
	var cum int64
	for i, b := range h.buckets {
		if b == 0 {
			continue
		}
		cum += b
		if cum < target {
			continue
		}
		var lower int64
		if i > 0 {
			lower = obs.BucketBound(i - 1)
		}
		upper := obs.BucketBound(i)
		if upper < 0 {
			return float64(lower) / 1e6
		}
		within := target - (cum - b)
		return (float64(lower) + float64(upper-lower)*float64(within)/float64(b)) / 1e6
	}
	return 0
}

// layerMetrics derives the counter-based per-layer metrics of a window in
// which stmts user statements ran, appends of them being appends.
func layerMetrics(r *report, w window, stmts, appends int) {
	per := func(name, unit string, v int64, base string) {
		r.ratio(name, unit, float64(v), float64(stmts), base)
	}
	per("engine.rows_scanned_per_query", "count", w.c["engine.rows.scanned"], "statements")    // pctvet:ok benchmark metric, not a registry name
	per("engine.statements_per_query", "count", w.c["engine.statements"], "statements")        // pctvet:ok benchmark metric, not a registry name
	per("engine.groups_per_query", "count", w.c["engine.groups.emitted"], "statements")        // pctvet:ok benchmark metric, not a registry name
	r.ratio("engine.join_index_reuse_ratio", "share", float64(w.c["engine.join.index_reuse"]), // pctvet:ok benchmark metric, not a registry name
		float64(w.c["engine.join.builds"]+w.c["engine.join.index_reuse"]), "join builds + index reuses")
	r.ratio("engine.agg_parallel_share", "share", float64(w.c["engine.agg.parallel"]), // pctvet:ok benchmark metric, not a registry name
		float64(w.c["engine.agg.parallel"]+w.c["engine.agg.seq_fallback"]), "aggregations")
	if h := w.h["engine.statement.ns"]; h.count > 0 {
		r.add("engine.statement_ms", "ms", float64(h.sum)/float64(h.count)/1e6, int(h.count)) // pctvet:ok benchmark metric, not a registry name
	}
	r.ratio("core.steps_per_query", "count", float64(w.c["core.steps"]), float64(w.c["core.plans"]), "plans") // pctvet:ok benchmark metric, not a registry name
	r.ratio("batch.fold_row_share", "share", float64(w.c["batch.fold.rows"]),                                 // pctvet:ok benchmark metric, not a registry name
		float64(w.c["engine.rows.scanned"]), "rows scanned")
	per("batch.fallbacks_per_query", "count", w.c["batch.fallbacks"], "statements")       // pctvet:ok benchmark metric, not a registry name
	r.add("batch.pivot_fallbacks", "count", float64(w.c["batch.pivot.fallbacks"]), stmts) // pctvet:ok benchmark metric, not a registry name
	r.ratio("batch.pool_hit_ratio", "share", float64(w.c["batch.pool.hits"]),             // pctvet:ok benchmark metric, not a registry name
		float64(w.c["batch.pool.gets"]), "pool gets")
	lookups := w.cache.Hits + w.cache.Misses
	r.ratio("cache.hit_ratio", "share", float64(w.cache.Hits), float64(lookups), "cache lookups")          // pctvet:ok benchmark metric, not a registry name
	r.ratio("cache.delta_per_append", "count", float64(w.cache.DeltaApplied), float64(appends), "appends") // pctvet:ok benchmark metric, not a registry name
	r.add("cache.invalidations", "count", float64(w.cache.Invalidations), stmts)
	r.ratio("cache.lattice_reuse_ratio", "share", float64(w.cache.LatticeFinestReused), // pctvet:ok benchmark metric, not a registry name
		float64(w.cache.LatticePlans), "lattice plans")
	r.ratio("runtime.alloc_mb_per_query", "MB", float64(w.alloc)/(1<<20), float64(stmts), "statements")
	r.add("runtime.gc_count", "count", float64(w.gcs), stmts)
}

// heapPeak tracks the highest HeapInuse seen after each operation. It reads
// runtime/metrics, which does not stop the world.
type heapPeak struct{ max atomic.Uint64 }

var heapSampleNames = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func (p *heapPeak) sample() {
	s := make([]metrics.Sample, len(heapSampleNames))
	for i, n := range heapSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var inuse uint64
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			inuse += x.Value.Uint64()
		}
	}
	for {
		cur := p.max.Load()
		if inuse <= cur || p.max.CompareAndSwap(cur, inuse) {
			return
		}
	}
}

func (p *heapPeak) mb() float64 { return float64(p.max.Load()) / (1 << 20) }
