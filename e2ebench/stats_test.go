package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// p95 needs ten samples beyond it: 200 is the smallest sample that has.
func TestPercentileRefusesThinTail(t *testing.T) {
	if _, err := percentile(seq(199), 0.95); err == nil {
		t.Error("p95 of 199 samples accepted, want refusal")
	}
	v, err := percentile(seq(200), 0.95)
	if err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples accepted")
	}
	if v, err := percentile(seq(3), 0.5); err != nil || v != 2 {
		t.Errorf("p50 of 1..3 = %v, %v; want 2", v, err)
	}
}

// quartiles must agree with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{3.2, 1.1, 7.5}, 1.1, 3.2, 7.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// Self time subtracts the union of the children's intervals.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if self[1] != 100-40-10 {
		t.Errorf("self time %v, want 50", self[1])
	}
	if self[2] != 30 {
		t.Errorf("leaf self time %v, want its duration 30", self[2])
	}
}
