package main

import (
	"strings"
	"testing"
)

func TestVpctCheckGroupsByTotals(t *testing.T) {
	c := check{kind: checkVpct, pct: 2, key: []int{0}}
	good := [][]any{{int64(1), int64(1), 0.25}, {int64(1), int64(2), 0.75}, {int64(2), int64(1), 1.0}}
	if err := c.verify(good); err != nil {
		t.Fatal(err)
	}
	bad := [][]any{{int64(1), int64(1), 0.25}, {int64(1), int64(2), 0.70}}
	if err := c.verify(bad); err == nil {
		t.Fatal("shares summing to 0.95 must fail")
	}
}

func TestHpctAndHaggChecks(t *testing.T) {
	h := check{kind: checkHpct, lead: 1}
	if err := h.verify([][]any{{int64(1), 0.5, 0.25, int64(0), 0.25}}); err != nil {
		t.Fatal(err)
	}
	if err := h.verify([][]any{{int64(1), 0.5, 0.4}}); err == nil {
		t.Fatal("an Hpct row summing to 0.9 must fail")
	}
	a := check{kind: checkHagg, lead: 1}
	if err := a.verify([][]any{{int64(1), int64(3), nil, int64(4), int64(7)}}); err != nil {
		t.Fatal(err)
	}
	if err := a.verify([][]any{{int64(1), int64(3), int64(4), int64(8)}}); err == nil {
		t.Fatal("sum(A) differing from the row sum must fail")
	}
}

func TestChecksumNumbersByValue(t *testing.T) {
	cols := []string{"a", "pct"}
	wire := checksum(cols, [][]any{{int64(1), int64(1)}})
	local := checksum(cols, [][]any{{int64(1), 1.0}})
	if wire != local {
		t.Error("an integer-decoded 1 must hash like the float 1")
	}
	if checksum(cols, [][]any{{int64(1), 0.5}}) == local {
		t.Error("different values must hash differently")
	}
}

func TestIdenticalComparesBits(t *testing.T) {
	cols := []string{"x"}
	a, b := 0.1, 0.2
	if err := identical(cols, cols, [][]any{{a + b}}, [][]any{{0.3}}); err == nil || !strings.Contains(err.Error(), "row 0") {
		t.Errorf("0.1+0.2 vs 0.3 must differ by bits, got %v", err)
	}
	if err := identical(cols, cols, [][]any{{int64(1)}}, [][]any{{1.0}}); err == nil {
		t.Error("int 1 vs float 1 must differ by kind")
	}
}
