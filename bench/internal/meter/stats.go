package meter

import (
	"math"
	"sort"
)

// Median returns the middle of vals (the mean of the middle two for an even
// count) and 0 for none. It sorts a copy.
func Median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sorted(vals)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) computes them, so a spread read here
// matches the one the acceptance check takes. It needs two values.
func Quartiles(vals []float64) (q1, q3 float64) {
	s := sorted(vals)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Spread is the distance between the quartiles as a share of the median.
func Spread(vals []float64) float64 {
	q1, q3 := Quartiles(vals)
	return (q3 - q1) / math.Abs(Median(vals))
}

// tailRank is the 1-based rank, in a sorted sample of n, of the tail a
// latency sample supports: the highest one, at most the 90th percentile, that
// still has ten samples beyond it. Fewer than twenty samples support only the
// median, reported as rank 0.
func tailRank(n int) int {
	rank := min(n-10, (9*n+9)/10)
	if rank*2 <= n {
		return 0
	}
	return rank
}

// TailPercent is the percentile Tail reads in a sample of n.
func TailPercent(n int) int {
	if rank := tailRank(n); rank > 0 {
		return rank * 100 / n
	}
	return 50
}

// Tail returns the tail value of vals and the percentile used.
func Tail(vals []float64) (v float64, pct int) {
	rank := tailRank(len(vals))
	if rank == 0 {
		return Median(vals), 50
	}
	return sorted(vals)[rank-1], TailPercent(len(vals))
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}
