package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank permille-th percentile of sorted xs
// (permille 990 is p99): the smallest sample with at least that share of the
// samples at or below it. Integer arithmetic keeps the rank exact.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := (permille*len(sorted) + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly above the nearest-rank percentile.
func beyond(n, permille int) int { return n - (permille*n+999)/1000 }

// tailPermilles are the tail percentiles the benchmark may report, highest
// first.
var tailPermilles = []int{999, 990, 900, 500}

// tailPermille picks the highest tail percentile that has at least ten
// samples beyond it, so a reported tail never rests on a handful of points.
// It returns 0 when n is too small for even the median.
func tailPermille(n int) int {
	for _, p := range tailPermilles {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// tailGroups is how many groups of consecutive rounds the open-loop tail is
// taken over. The reported tail is the median of the groups' tails, so a
// burst of outside load in one group does not set it.
const tailGroups = 3

// groupTail splits the rounds' sorted latencies into tailGroups groups of
// consecutive rounds, picks the tail percentile by the ten-beyond rule on
// the smallest group's scheduled count, and returns it with each group's
// tail and that count. len(lat) must be a multiple of tailGroups.
func groupTail(lat [][]float64, scheduled []int) (permille int, tails []float64, size int) {
	per := len(lat) / tailGroups
	groups := make([][]float64, tailGroups)
	size = -1
	for g := range groups {
		n := 0
		for r := g * per; r < (g+1)*per; r++ {
			groups[g] = append(groups[g], lat[r]...)
			n += scheduled[r]
		}
		sort.Float64s(groups[g])
		if size < 0 || n < size {
			size = n
		}
	}
	permille = tailPermille(size)
	for _, xs := range groups {
		tails = append(tails, percentile(xs, permille))
	}
	return permille, tails, size
}

// percentileName renders a permille as p99.9, p99, p90 or p50.
func percentileName(permille int) string {
	switch permille {
	case 999:
		return "p99.9"
	case 990:
		return "p99"
	case 900:
		return "p90"
	case 500:
		return "p50"
	}
	return "none"
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones the acceptance check
// computes. xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median of xs (the mean of the middle pair for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// ratio divides, returning 0 for an empty denominator (a layer the workload
// never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
