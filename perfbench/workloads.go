package main

import (
	"strconv"
	"time"

	"repro/internal/dataset"
)

// workload is one input set and traffic mix. Nominal rates are absolute
// ops/s at 35-45% of what the program sustained on a 2-CPU Xeon VM, a
// little under half so that the CPU steal such shared hosts show does not
// saturate the server mid-phase; the rate ladder climbs from there.
type workload struct {
	name string
	why  string

	data  func(seed int64) [][]float64
	fresh func(seed int64) [][]float64 // insert points; nil when read-only
	// The engine: forward-index back-end, quantized pre-filter, and t (0
	// lets the program estimate it by MLE).
	backend string
	quant   bool
	t       float64
	// shards > 0 runs that many shard-serve daemons behind one coordinate
	// process instead of one serve process.
	shards int

	mix     mix
	nominal float64       // ops/s of the measured phase
	ladder  []float64     // ops/s rungs above nominal, ascending
	limit   time.Duration // rknn p95 latency limit on each ladder rung

	oracleQueries int     // exact-answer sample size
	minRecall     float64 // recall below this marks the run incorrect
	// minPrecision is 1 where every returned ID passes an exact test (the
	// cluster's merge verifies each candidate against the global k-NN
	// distance). One RDT+ engine may also return rare lazily accepted false
	// hits (paper Section 4.3), so its floor sits below 1; those hits must
	// still be covered by the query's lazy accepts.
	minPrecision  float64
	replayQueries int // traced-run replay sample size
}

const rankK = 10

var workloads = []*workload{
	{
		name:    "fct-serve-read",
		why:     "one serve over FCT n=20000 53-d, covertree, MLE t; 80% rknn 20% knn by point; small per-query work, so HTTP, facade and core scan/filter dominate",
		data:    func(seed int64) [][]float64 { return dataset.FCT(20000, seed).Points },
		backend: "covertree",
		mix:     mix{opRkNN: 0.8, opKNN: 0.2},

		nominal: 400,
		ladder:  []float64{600, 800, 1000, 1200},
		limit:   25 * time.Millisecond,

		oracleQueries: 40,
		minRecall:     0.9,
		minPrecision:  0.99,
		replayQueries: 64,
	},
	{
		name:    "mnist-verify",
		why:     "one serve over MNIST n=3000 784-d, scan back-end, quantized filter, t=3; rknn by point; verification and forward kNN dominate",
		data:    func(seed int64) [][]float64 { return dataset.MNIST(3000, seed).Points },
		backend: "scan",
		quant:   true,
		t:       3,
		mix:     mix{opRkNN: 1},

		nominal: 28,
		ladder:  []float64{35, 45, 55, 65},
		limit:   250 * time.Millisecond,

		oracleQueries: 32,
		minRecall:     0.95,
		minPrecision:  0.99,
		replayQueries: 24,
	},
	{
		name:    "fct-cluster-rw",
		why:     "FCT n=20000 over 3 shard-serve daemons and a binary-framed coordinate; 90% rknn, 5% insert, 5% delete; crosses wire, fan-out, merge and the overlay",
		data:    func(seed int64) [][]float64 { return dataset.FCT(20000, seed).Points },
		fresh:   func(seed int64) [][]float64 { return dataset.FCT(2000, seed+1).Points },
		backend: "covertree",
		shards:  3,
		mix:     mix{opRkNN: 0.9, opInsert: 0.05, opDelete: 0.05},

		nominal: 50,
		ladder:  []float64{75, 100, 125, 150},
		limit:   60 * time.Millisecond,

		oracleQueries: 40,
		minRecall:     0.9,
		minPrecision:  1,
		replayQueries: 32,
	},
}

// flags are the engine flags of serve and of every shard-serve.
func (w *workload) flags() []string {
	f := []string{"-backend", w.backend, "-t", strconv.FormatFloat(w.t, 'g', -1, 64)}
	if w.quant {
		f = append(f, "-quant-filter")
	}
	return f
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
