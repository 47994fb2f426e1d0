package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/value"
)

// shareTol is the one float tolerance every share check uses: Vpct shares
// of a totals group and Hpct cells of a row must sum to 1 within it. Sums
// of at most a few thousand doubles in [0, 1] stay far inside it.
const shareTol = 1e-9

// checkKind names the structural check a statement's result gets.
type checkKind int

const (
	checkNone checkKind = iota
	checkVpct           // shares sum to 1 per totals group
	checkHpct           // each row's percentage cells sum to 1
	checkHagg           // the trailing sum(A) equals the row sum of the BY cells
)

// check describes where the checked cells sit in a result row.
type check struct {
	kind checkKind
	// pct is the Vpct share column.
	pct int
	// key lists the columns that identify a Vpct totals group: every
	// dimension outside the BY list, plus the GROUPING marker of a cube.
	key []int
	// lead is the number of leading dimension columns of an Hpct or Hagg
	// row; trail the number of trailing columns that are not cells (the
	// GROUPING marker of an Hpct cube, the sum(A) of Hagg).
	lead, trail int
}

// verify runs the statement's structural check over its rows.
func (c check) verify(rows [][]any) error {
	switch c.kind {
	case checkVpct:
		sums := make(map[string]float64)
		for _, r := range rows {
			k := rowKey(r, c.key)
			f, ok := num(r[c.pct])
			if !ok {
				return fmt.Errorf("vpct share %v is not a number", r[c.pct])
			}
			sums[k] += f
		}
		for k, s := range sums {
			if math.Abs(s-1) > shareTol {
				return fmt.Errorf("vpct shares of group [%s] sum to %.17g, want 1", k, s)
			}
		}
		if len(rows) == 0 {
			return fmt.Errorf("vpct result is empty")
		}
	case checkHpct:
		for i, r := range rows {
			var s float64
			for _, cell := range r[c.lead : len(r)-c.trail] {
				f, _ := num(cell) // a NULL cell is an absent combination
				s += f
			}
			if math.Abs(s-1) > shareTol {
				return fmt.Errorf("hpct row %d sums to %.17g, want 1", i, s)
			}
		}
		if len(rows) == 0 {
			return fmt.Errorf("hpct result is empty")
		}
	case checkHagg:
		for i, r := range rows {
			var s int64
			for _, cell := range r[c.lead : len(r)-1] {
				if v, ok := cell.(int64); ok {
					s += v
				}
			}
			if tot, ok := r[len(r)-1].(int64); !ok || tot != s {
				return fmt.Errorf("hagg row %d: sum(A) = %v, row sum of BY cells = %d", i, r[len(r)-1], s)
			}
		}
		if len(rows) == 0 {
			return fmt.Errorf("hagg result is empty")
		}
	}
	return nil
}

func rowKey(r []any, cols []int) string {
	var sb strings.Builder
	for _, c := range cols {
		fmt.Fprintf(&sb, "%v|", r[c])
	}
	return sb.String()
}

// num reads a numeric cell as float64.
func num(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// fromValue converts an engine value to the Go type pctagg.Rows carries.
func fromValue(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindString:
		return v.Str()
	case value.KindBool:
		return v.Bool()
	default:
		return nil
	}
}

// engineRows converts an engine result to pctagg's row representation.
func engineRows(res *engine.Result) [][]any {
	out := make([][]any, len(res.Rows))
	for i, r := range res.Rows {
		row := make([]any, len(r))
		for j, v := range r {
			row[j] = fromValue(v)
		}
		out[i] = row
	}
	return out
}

// identical reports the first difference between two results: column
// names, row count, order, kind and exact value (floats by bit pattern).
func identical(colsA, colsB []string, a, b [][]any) error {
	if strings.Join(colsA, ",") != strings.Join(colsB, ",") {
		return fmt.Errorf("columns %v vs %v", colsA, colsB)
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d cells vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			fx, okx := x.(float64)
			fy, oky := y.(float64)
			if okx && oky {
				if math.Float64bits(fx) != math.Float64bits(fy) {
					return fmt.Errorf("row %d col %d: %v vs %v", i, j, x, y)
				}
				continue
			}
			if x != y {
				return fmt.Errorf("row %d col %d: %v (%T) vs %v (%T)", i, j, x, y, x, y)
			}
		}
	}
	return nil
}

// checksum hashes a result in order. Numbers hash by their float64 value
// so a share that crosses the wire as the JSON number 1 (decoded as an
// integer) hashes like the in-process float 1.
func checksum(cols []string, rows [][]any) uint64 {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(cols, "\x1f")))
	for _, r := range rows {
		h.Write([]byte{0x1e})
		for _, c := range r {
			var s string
			switch x := c.(type) {
			case nil:
				s = "N"
			case int64:
				s = "n" + strconv.FormatFloat(float64(x), 'g', -1, 64)
			case float64:
				s = "n" + strconv.FormatFloat(x, 'g', -1, 64)
			case string:
				s = "s" + x
			case bool:
				s = "b" + strconv.FormatBool(x)
			default:
				s = fmt.Sprintf("?%v", x)
			}
			h.Write([]byte(s))
			h.Write([]byte{0x1f})
		}
	}
	return h.Sum64()
}
