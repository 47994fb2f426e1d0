package main

import "testing"

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		b      []float64
		better string
		bound  float64
		want   string
	}{
		{base, "lower", 0.1, "unchanged"},
		{shift(1.2), "lower", 0.1, "worse"},
		{shift(0.8), "lower", 0.1, "better"},
		{shift(0.8), "higher", 0.1, "worse"},
		{shift(1.05), "lower", 0.1, "unchanged"},
		{[]float64{50, 150, 60, 140, 70, 130}, "lower", 0.1, "unresolved"},
		{shift(1.5), "", 0, "moved +50.0%"},
	} {
		if got := verdict(base, c.b, c.better, c.bound); got != c.want {
			t.Errorf("verdict(%v, %s, %g) = %q, want %q", c.b[:2], c.better, c.bound, got, c.want)
		}
	}
}
