package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]; with two values it
	// extrapolates: statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0].
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ permille, want int }{{500, 50}, {900, 90}, {990, 99}, {999, 100}} {
		if got := percentile(xs, c.permille); got != float64(c.want) {
			t.Errorf("p%d of 1..100 = %v, want %d", c.permille, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 500)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{10000, 999}, {9999, 990}, {1000, 990}, {999, 900}, {100, 900}, {99, 500}, {20, 500}, {19, 0},
	} {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
		if p := tailPermille(c.n); p != 0 && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: %s has only %d samples beyond it", c.n, percentileName(p), beyond(c.n, p))
		}
	}
}

func TestGroupTailTakesMedianOfGroups(t *testing.T) {
	// Six rounds of 50 samples: groups of two rounds hold 100 samples, so
	// the tail is p90 with ten beyond. Round 3 (in the second group) is a
	// burst ten times slower; the median of the group tails ignores it.
	var lat [][]float64
	var scheduled []int
	for r := 0; r < 6; r++ {
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = float64(i + 1)
			if r == 3 {
				xs[i] *= 10
			}
		}
		lat = append(lat, xs)
		scheduled = append(scheduled, 50)
	}
	p, tails, size := groupTail(lat, scheduled)
	if p != 900 || size != 100 {
		t.Fatalf("groupTail chose %s over %d samples, want p90 over 100", percentileName(p), size)
	}
	// Group 0: two copies of 1..50, p90 is rank 90 of 100, the value 45.
	// Group 1: 1..50 and 10, 20, ..., 500; rank 90 is 400.
	if want := []float64{45, 400, 45}; tails[0] != want[0] || tails[1] != want[1] || tails[2] != want[2] {
		t.Errorf("group tails %v, want %v", tails, want)
	}
	if m := median(tails); m != 45 {
		t.Errorf("median tail %v, want 45", m)
	}
}
