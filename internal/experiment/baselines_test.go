package experiment

import (
	"fmt"
	"testing"
)

func TestRunExposureComparison(t *testing.T) {
	tb, err := RunExposureComparison(tinyParams(), []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 || len(tb.Columns) != 4 {
		t.Fatalf("table shape: %d rows × %d cols", len(tb.Rows), len(tb.Columns))
	}
	for _, row := range tb.Rows {
		for col := 1; col < 4; col++ {
			var v float64
			if _, err := fmt.Sscan(row[col], &v); err != nil {
				t.Fatalf("parse %q: %v", row[col], err)
			}
			if v <= 0 {
				t.Errorf("column %d has non-positive area %v", col, v)
			}
		}
	}
}

func TestExposurePriceIsBounded(t *testing.T) {
	// Non-exposure cloaking cannot beat the coordinate-exposing optimum
	// by much, nor should it be catastrophically worse: sanity-bound the
	// t-Conn/hilbASR area ratio on the table's default-k row.
	p := tinyParams()
	tb, err := RunExposureComparison(p, []int{p.K})
	if err != nil {
		t.Fatal(err)
	}
	var tconn, hilb float64
	if _, err := fmt.Sscan(tb.Rows[0][1], &tconn); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(tb.Rows[0][3], &hilb); err != nil {
		t.Fatal(err)
	}
	ratio := tconn / hilb
	if hilb <= 0 || ratio <= 0 || ratio > 100 {
		t.Errorf("exposure price ratio = %v (t-Conn %v, hilbASR %v), expected a sane positive factor", ratio, tconn, hilb)
	}
	t.Logf("non-exposure/hilbASR area ratio at k=%d: %.2f", p.K, ratio)
}
