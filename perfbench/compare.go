package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// loadReports reads every run result in dir, keyed by workload and mode.
func loadReports(dir string) (map[string][]*report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*report{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" {
			continue
		}
		key := r.Workload
		if r.Trace {
			key += " (traced)"
		}
		out[key] = append(out[key], &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no run results", dir)
	}
	return out, nil
}

// side is one metric's values over a set of runs.
type side struct {
	vals     []float64
	num, den float64
	base     string
}

func collect(runs []*report) map[string]*side {
	out := map[string]*side{}
	for _, r := range runs {
		for _, m := range r.Metrics {
			s := out[m.Name]
			if s == nil {
				s = &side{base: m.Base}
				out[m.Name] = s
			}
			s.vals = append(s.vals, m.Value)
			s.num += m.Num
			s.den += m.Den
		}
	}
	return out
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) (med, q1, q3, rel float64, ok bool) {
	q1, med, q3, ok = quartiles(vals)
	if !ok {
		return 0, 0, 0, 0, false
	}
	if med == 0 { // floateq:ok an exact zero median has no relative spread
		return med, q1, q3, 0, true
	}
	return med, q1, q3, (q3 - q1) / math.Abs(med), true
}

// verdict judges B against A. better is "lower", "higher" or "" (no
// direction); bound > 0 is the end-to-end regression bound.
//
// With a bound: unresolved when either side's spread exceeds the bound
// (unless every B run beats, or loses to, every A run); worse when B's
// median is worse by more than the bound; better when it is better by more
// than A's own spread; otherwise unchanged. Without a bound the same rule
// runs with the larger spread in place of the bound.
func verdict(a, b []float64, better string, bound float64) string {
	ma, _, _, sa, okA := spread(a)
	mb, _, _, sb, okB := spread(b)
	if !okA || !okB {
		return "unresolved (fewer than 2 runs)"
	}
	if ma == 0 { // floateq:ok an exact zero base has no relative change
		if mb == 0 { // floateq:ok both sides exactly zero
			return "unchanged"
		}
		return "unresolved (zero base)"
	}
	rel := (mb - ma) / math.Abs(ma)
	gain := rel
	if better == "lower" {
		gain = -rel
	}
	limit := bound
	if limit <= 0 {
		limit = math.Max(sa, sb)
	}
	if better == "" {
		if math.Abs(rel) > limit {
			return fmt.Sprintf("moved %+.1f%%", 100*rel)
		}
		return "unchanged"
	}
	if math.Max(sa, sb) > limit {
		switch {
		case dominates(a, b, better):
			return "better"
		case dominates(b, a, better):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case gain < -limit:
		return "worse"
	case gain > 0 && gain > sa:
		return "better"
	}
	return "unchanged"
}

// dominates reports whether every value of y beats every value of x.
func dominates(x, y []float64, better string) bool {
	for _, xv := range x {
		for _, yv := range y {
			if (better == "lower" && yv >= xv) || (better == "higher" && yv <= xv) {
				return false
			}
		}
	}
	return true
}

// runCompare prints, per workload and metric, each side's median and
// quartiles, a verdict, and the summed numerator and base of every ratio.
func runCompare(w io.Writer, sp *spec, dirA, dirB string) error {
	ra, err := loadReports(dirA)
	if err != nil {
		return err
	}
	rb, err := loadReports(dirB)
	if err != nil {
		return err
	}
	declared := map[string]specMetric{}
	for _, m := range append(append([]specMetric{}, sp.PerLayer...), sp.EndToEnd...) {
		declared[m.Name] = m
	}
	keys := make([]string, 0, len(ra))
	for k := range ra {
		if _, ok := rb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("no workload has runs on both sides")
	}
	for _, k := range keys {
		ca, cb := collect(ra[k]), collect(rb[k])
		fmt.Fprintf(w, "== %s: A %d runs (%s), B %d runs (%s)\n", k, len(ra[k]), dirA, len(rb[k]), dirB)
		fmt.Fprintf(w, "%-36s %-34s %-34s %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "verdict")
		for _, name := range sortedKeys(ca) {
			a, b := ca[name], cb[name]
			if b == nil {
				continue
			}
			d := declared[name]
			fmt.Fprintf(w, "%-36s %-34s %-34s %s\n", name, describe(a.vals), describe(b.vals),
				verdict(a.vals, b.vals, d.Better, d.Bound))
			if a.base != "" {
				fmt.Fprintf(w, "%-36s A %.6g / %.6g %s = %.6g; B %.6g / %.6g = %.6g\n", "", a.num, a.den, a.base,
					safeDiv(a.num, a.den), b.num, b.den, safeDiv(b.num, b.den))
			}
		}
	}
	return nil
}

func describe(vals []float64) string {
	med, q1, q3, _, ok := spread(vals)
	if !ok {
		return fmt.Sprintf("%.6g (1 run)", vals[0])
	}
	return fmt.Sprintf("%.6g [%.6g, %.6g]", med, q1, q3)
}

func safeDiv(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
