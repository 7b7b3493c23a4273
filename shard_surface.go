package repro

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/vecmath"
)

// This file is the shard-serving surface of the facade: the handful of
// read-side methods a shard daemon exposes so a remote coordinator can run
// the scatter-gather verification against it — batched member-point
// lookups, batched forward-kNN probes with explicit self-exclusion, the ID
// span behind the shard-map rebuild, and the metric identity behind the
// coordinator's cross-shard configuration check. They are ordinary public
// API: all answer from one pinned snapshot, with the same concurrency
// contract as every other read.

// KNNQuery is one probe of KNNSkipBatch: the query point, the rank, and an
// optional member ID to exclude from the result (-1 for none) — the
// self-exclusion a member RkNN verification needs, made explicit because
// "fetch k+1 and drop the member" is not equivalent under duplicate-point
// distance ties.
type KNNQuery struct {
	Point []float64
	K     int
	Skip  int
}

// KNNSkipBatch answers many forward-kNN probes against one pinned
// snapshot, each in ascending (distance, ID) order with the probe's Skip
// member excluded. All probes see the same generation of the index, which
// is what makes a remote verification pass sound: the kNN bound of every
// candidate is computed over one consistent shard view.
func (eng *engine) KNNSkipBatch(qs []KNNQuery) ([][]Neighbor, error) {
	sn := eng.snap.Load()
	m := sn.ix.Metric()
	dim := sn.ix.Dim()
	out := make([][]Neighbor, len(qs))
	for i, q := range qs {
		if q.K <= 0 {
			return nil, fmt.Errorf("rknnd: core: K must be positive, got %d", q.K)
		}
		if err := vecmath.ValidateFor(m, q.Point); err != nil {
			return nil, fmt.Errorf("rknnd: probe %d: %w", i, err)
		}
		if len(q.Point) != dim {
			return nil, fmt.Errorf("rknnd: probe %d: query dimension %d, index dimension %d", i, len(q.Point), dim)
		}
		skip := q.Skip
		if skip < 0 {
			skip = -1
		}
		nn := sn.ix.KNN(q.Point, q.K, skip)
		res := make([]Neighbor, len(nn))
		for j, nb := range nn {
			res[j] = Neighbor{ID: nb.ID, Dist: nb.Dist}
		}
		out[i] = res
	}
	return out, nil
}

// MemberPoints resolves member IDs to coordinates from one pinned
// snapshot. A nil row marks an ID with no live point there: deleted, out
// of range, or an insert still in flight. Unlike Point, it never panics —
// it is the remote-safe form a daemon can expose to untrusted IDs. The
// returned rows are owned by the engine and must not be modified.
func (eng *engine) MemberPoints(ids ...int) [][]float64 {
	ix := eng.snap.Load().ix
	rows := make([][]float64, len(ids))
	for i, id := range ids {
		rows[i] = livePoint(ix, id)
	}
	return rows
}

// IDSpan returns the number of member IDs ever assigned, including
// tombstones — the quantity a coordinator needs to rebuild the global
// shard map, since hash placement is a pure function of assignment order,
// not of liveness.
func (eng *engine) IDSpan() int {
	span, _ := liveSpan(eng.snap.Load().ix)
	return span
}

// MetricIdentity returns the registry identity (ID, parameter) of the
// engine's distance metric — the comparable form behind the coordinator's
// cross-shard configuration check, mirroring what OpenSharded verifies
// across on-disk shard stores.
func (eng *engine) MetricIdentity() (uint8, float64, error) {
	id, param, err := vecmath.IdentifyMetric(eng.snap.Load().ix.Metric())
	return uint8(id), param, err
}

// EstimateScale estimates the scale parameter t over the full dataset
// exactly the way NewSharded does before partitioning: the configured
// estimator (WithAutoScale, default MLE) runs against an exact scan index
// over all points, the margin (WithScaleMargin) is added, and the result
// is clamped to at least 1. A shard daemon uses this so S independently
// started processes, each holding one partition, agree on the t a single
// ShardedSearcher over the same dataset would use — a prerequisite for
// byte-identical networked answers.
func EstimateScale(points [][]float64, opts ...Option) (float64, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return 0, err
	}
	if err := vecmath.ValidateAllFor(cfg.metric, points); err != nil {
		return 0, fmt.Errorf("rknnd: %w", err)
	}
	return cfg.fullScale(points)
}

// fullScale estimates t over the full dataset through a throwaway scan
// index — the estimators are exact-kNN-based, so this yields the same t
// as estimating on any back-end over the same points — then adds the
// margin and clamps the result to at least 1.
func (cfg config) fullScale(points [][]float64) (float64, error) {
	full, err := harness.BuildBackend(string(BackendScan), points, cfg.metric)
	if err != nil {
		return 0, fmt.Errorf("rknnd: %w", err)
	}
	return cfg.scaleOn(full, points)
}
