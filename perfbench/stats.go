package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the q-quantile of xs by the nearest-rank method, or NaN
// for an empty sample. xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tail is a named upper percentile.
type tail struct {
	name string
	q    float64
}

var (
	p99 = tail{"p99", 0.99}
	p95 = tail{"p95", 0.95}
	p90 = tail{"p90", 0.90}
)

// tailFor returns the highest of p99, p95 and p90 that leaves at least ten
// of n samples beyond it: p99 needs 1000 samples, p95 200 and p90 100. ok is
// false when n is too small for any of them.
func tailFor(n int) (t tail, ok bool) {
	for _, t := range []tail{p99, p95, p90} {
		// n*(1-q) >= 10, in integer per-mille so 0.99 does not round.
		if n*(1000-int(math.Round(t.q*1000))) >= 10*1000 {
			return t, true
		}
	}
	return tail{}, false
}

// median of xs: the middle value, or the mean of the two middle values
// (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// rung is one step of the rate ladder.
type rung struct {
	rate     float64 // offered ops/s
	rknn     int     // rknn ops attempted
	missed   int     // rknn ops failed or slower than the limit
	backlog  int     // ops still queued when the schedule ended
	achieved float64 // successful ops/s
}

// holds reports whether the rung met the latency limit at tail t: at most
// a (1-t.q) share of its rknn ops missed the limit (a failure counts as a
// miss), and the ops still queued when the schedule ended are fewer than
// arrive within the limit, so the backlog is not growing past it.
func (r rung) holds(t tail, limit time.Duration) bool {
	if r.rknn == 0 {
		return false
	}
	return float64(r.missed) <= (1-t.q)*float64(r.rknn) && float64(r.backlog) <= r.rate*limit.Seconds()
}

// rungOf summarizes a phase against a latency limit.
func rungOf(p *phase, limit time.Duration) rung {
	r := rung{rate: p.rate, backlog: p.backlog, achieved: p.achieved()}
	for _, ms := range p.latencies(opRkNN) {
		r.rknn++
		if ms > durMS(limit) {
			r.missed++
		}
	}
	return r
}

// climb probes the rates in ascending order and stops at the first rung that
// does not hold. It returns the highest rung that held (ok false if none did)
// and every rung it ran.
func climb(rates []float64, t tail, limit time.Duration, probe func(rate float64) (rung, error)) (best rung, ok bool, ran []rung, err error) {
	for _, rate := range rates {
		r, err := probe(rate)
		if err != nil {
			return best, ok, ran, err
		}
		ran = append(ran, r)
		if !r.holds(t, limit) {
			break
		}
		best, ok = r, true
	}
	return best, ok, ran, nil
}
