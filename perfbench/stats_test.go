package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, {100, 90, true}, {109, 90, true},
		{999, 99, false}, {1000, 99, true}, {9999, 99.9, false}, {10000, 99.9, true},
		{0, 90, false}, {20, 50, true}, {19, 50, false},
	}
	for _, c := range cases {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, p%g) = %v (beyond %d), want %v", c.n, c.p, got, beyond(c.n, c.p), c.want)
		}
	}
}

func TestLatencyReportsOnlySupportedTails(t *testing.T) {
	for _, c := range []struct {
		n    int
		want []string
	}{
		{99, []string{"x.p50_ms"}},
		{100, []string{"x.p50_ms", "x.p90_ms"}},
		{1000, []string{"x.p50_ms", "x.p90_ms", "x.p99_ms"}},
	} {
		s := make(samples, c.n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Millisecond
		}
		var r report
		r.latency("x.", s)
		var got []string
		for _, m := range r.Metrics {
			got = append(got, m.Name)
			if m.N != c.n {
				t.Errorf("%s: sample count %d, want %d", m.Name, m.N, c.n)
			}
		}
		if len(got) != len(c.want) {
			t.Fatalf("n=%d: got %v, want %v", c.n, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("n=%d: got %v, want %v", c.n, got, c.want)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || math.Abs(q1-c.want[0]) > 1e-12 || math.Abs(q2-c.want[1]) > 1e-12 || math.Abs(q3-c.want[2]) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value must report !ok")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	if got := percentile(s, 50); math.Abs(got-25) > 1e-12 {
		t.Errorf("p50 = %v, want 25", got)
	}
	if got := percentile(s, 100); got != 40 { // floateq:ok exact endpoint
		t.Errorf("p100 = %v, want 40", got)
	}
}
