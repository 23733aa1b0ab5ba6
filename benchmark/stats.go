package main

import (
	"math"
	"sort"
)

// summary is the shape every reported value takes: the median of the
// per-round (or per-rep) samples with its quartiles and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantileSorted returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks (the "inclusive" method, the same one
// Python's statistics.quantiles(method="inclusive") uses). Empty input
// yields NaN so a missing sample can never pass for a measurement.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func summarize(v []float64) summary {
	s := sortedCopy(v)
	return summary{
		Median: quantileSorted(s, 0.5),
		Q1:     quantileSorted(s, 0.25),
		Q3:     quantileSorted(s, 0.75),
		N:      len(s),
	}
}

// interquartileMean is the mean of the middle half of the samples: as deaf
// to outliers as the median, but steady where the samples have two modes
// of equal weight and the median would fall in the gap between them.
func interquartileMean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// tailBeyond is how many samples must lie beyond a percentile before the
// harness reports it: with fewer, the "percentile" is just the position of
// a handful of outliers.
const tailBeyond = 10

// tailCandidates are the percentiles the harness may report as "the tail",
// highest first.
var tailCandidates = []float64{0.9999, 0.999, 0.99, 0.95, 0.90}

// quantileIndex is the position of the q-quantile among n ascending
// samples (nearest rank below); n-1-quantileIndex samples lie beyond it.
func quantileIndex(n int, q float64) int { return int(q * float64(n-1)) }

// highestPercentile picks the highest candidate percentile that still has
// at least tailBeyond samples beyond it among n samples; ok is false when
// not even the lowest candidate qualifies.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n-1-quantileIndex(n, c) >= tailBeyond {
			return c, true
		}
	}
	return 0, false
}

// pairRatios divides each native sample by the MVEE sample of the same
// pair. Pairs run back to back, so slow host drift (frequency, a noisy
// neighbour) hits both sides of a ratio and cancels.
func pairRatios(native, mvee []float64) []float64 {
	n := min(len(native), len(mvee))
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if mvee[i] > 0 {
			out = append(out, native[i]/mvee[i])
		}
	}
	return out
}

// latencyQuantiles sorts one round's per-request latencies (ns) in place
// and returns the median and the q-quantile in microseconds.
func latencyQuantiles(ns []int64, q float64) (p50us, tailus float64) {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	at := func(q float64) float64 {
		if len(ns) == 0 {
			return math.NaN()
		}
		return float64(ns[quantileIndex(len(ns), q)]) / 1e3
	}
	return at(0.5), at(q)
}

// slowestMeanUs is the mean, in microseconds, of the slowest share of an
// ascending latency sample (ns) — at least one sample.
func slowestMeanUs(sorted []int64, share float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	tail := sorted[min(quantileIndex(len(sorted), 1-share)+1, len(sorted)-1):]
	var sum float64
	for _, v := range tail {
		sum += float64(v)
	}
	return sum / float64(len(tail)) / 1e3
}
