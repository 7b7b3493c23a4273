package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestTailForNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{99, ""},
		{100, "p90"},
		{199, "p90"},
		{200, "p95"},
		{999, "p95"},
		{1000, "p99"},
		{50000, "p99"},
	} {
		got, ok := tailFor(c.n)
		if ok != (c.want != "") || got.name != c.want {
			t.Errorf("tailFor(%d) = %q, %v; want %q", c.n, got.name, ok, c.want)
		}
		if ok {
			beyond := c.n - int(math.Ceil(got.q*float64(c.n)))
			if beyond < 10 {
				t.Errorf("tailFor(%d) = %s leaves %d samples beyond it", c.n, got.name, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	// A failed op is +Inf and lifts the percentiles it reaches.
	if got := percentile([]float64{1, 2, math.Inf(1)}, 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 with a failure = %v, want +Inf", got)
	}
}

func TestRungHolds(t *testing.T) {
	limit := 20 * time.Millisecond
	for _, c := range []struct {
		name string
		r    rung
		want bool
	}{
		{"clean", rung{rate: 100, rknn: 100}, true},
		{"5% missed", rung{rate: 100, rknn: 100, missed: 5}, true},
		{"6% missed", rung{rate: 100, rknn: 100, missed: 6}, false},
		{"backlog within the limit", rung{rate: 100, rknn: 100, backlog: 2}, true},
		{"backlog past the limit", rung{rate: 100, rknn: 100, backlog: 3}, false},
		{"no rknn ops", rung{rate: 100}, false},
	} {
		if got := c.r.holds(p95, limit); got != c.want {
			t.Errorf("%s: holds = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClimbStopsAtFirstFailingRung(t *testing.T) {
	// A fake system that holds up to 300 ops/s.
	var probed []float64
	probe := func(rate float64) (rung, error) {
		probed = append(probed, rate)
		r := rung{rate: rate, rknn: 100, achieved: rate}
		if rate > 300 {
			r.missed = 50
		}
		return r, nil
	}
	best, ok, ran, err := climb([]float64{100, 200, 300, 400, 500}, p95, time.Second, probe)
	if err != nil || !ok || best.rate != 300 {
		t.Fatalf("climb = %+v, %v, %v; want the 300 rung", best, ok, err)
	}
	if len(ran) != 4 || len(probed) != 4 {
		t.Errorf("climb ran %d rungs (%v), want 4: it must stop at the first failure", len(ran), probed)
	}

	_, ok, _, _ = climb([]float64{400}, p95, time.Second, probe)
	if ok {
		t.Error("climb reported a rung when none held")
	}
	boom := errors.New("boom")
	if _, _, _, err := climb([]float64{100}, p95, time.Second, func(float64) (rung, error) { return rung{}, boom }); !errors.Is(err, boom) {
		t.Errorf("climb error = %v, want the probe's", err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of an odd sample = %v, want 2", got)
	}
}
