// Package repro is the public facade of this repository: reverse k-nearest
// neighbor search by dimensional testing, implementing Casanova, Englmeier,
// Houle, Kröger, Nett, Schubert, Zimek: "Dimensional Testing for Reverse
// k-Nearest Neighbor Search", PVLDB 10(7), 2017.
//
// A Searcher indexes a point set once and then answers reverse k-nearest
// neighbor queries with the paper's RDT+ algorithm (or plain RDT): which
// points of the dataset have the query among their k nearest neighbors?
//
//	s, err := repro.New(points)                    // cover-tree back-end, auto t
//	ids, err := s.ReverseKNN(queryID, 10)          // members of RkNN(query, 10)
//
// The approximation quality is governed by the scale parameter t, an upper
// bound on the local intrinsic dimensionality around queries: results are
// exact whenever t dominates the maximum generalized expansion dimension
// (Theorem 1 of the paper), and recall degrades gracefully for smaller t in
// exchange for speed. By default t is estimated from the data with the
// maximum-likelihood estimator of local intrinsic dimensionality; it can be
// pinned with WithScale or re-estimated with a different estimator via
// WithAutoScale.
//
// Every engine type — Searcher, DurableSearcher, ShardedSearcher,
// DurableShardedSearcher and the networked Coordinator — answers through
// one front end (frontEnd, shard.go) over a set of shards; a Searcher is
// the one-shard case, its single in-process engine (this file) holding
// the whole dataset. See DESIGN.md, "Concurrency: copy-on-write
// snapshots".
//
// The subpackages under internal/ contain the full research apparatus — the
// competing methods (SFT, MRkNNCoP, RdNN-Tree, TPL), four interchangeable
// forward-kNN back-ends, intrinsic-dimensionality estimators, and the
// harness reproducing the paper's experiments; see DESIGN.md.
package repro

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/index"
	"repro/internal/lid"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vecmath"
)

// Metric is a distance function on equal-length float64 vectors. The
// built-in metrics (Euclidean, Manhattan, Chebyshev, Minkowski, Angular)
// satisfy it; custom metrics must be symmetric, non-negative, and — for the
// exactness guarantee and the tree back-ends — obey the triangle inequality
// (Metricity must report whether it holds).
type Metric = vecmath.Metric

// Built-in metrics.
var (
	// Euclidean is the L2 metric (the paper's experimental setting).
	Euclidean Metric = vecmath.Euclidean{}
	// Manhattan is the L1 metric.
	Manhattan Metric = vecmath.Manhattan{}
	// Chebyshev is the L∞ metric.
	Chebyshev Metric = vecmath.Chebyshev{}
	// Angular is the angle between vectors, a true metric on directions.
	Angular Metric = vecmath.Angular{}
)

// Minkowski returns the Lp metric for p >= 1.
func Minkowski(p float64) (Metric, error) { return vecmath.NewMinkowski(p) }

// ParseMetric resolves a built-in metric by its stable registered name
// ("euclidean", "manhattan", "chebyshev", "angular", "minkowski(p)"), the
// same identity under which metrics round-trip through Save and Load.
func ParseMetric(name string) (Metric, error) { return vecmath.ParseMetric(name) }

// ErrDeleted reports a member query anchored at a deleted point. Queries
// racing Delete on the same ID fail with it (match with errors.Is); it is
// the expected outcome of that race, not a corruption.
var ErrDeleted = core.ErrDeletedID

// Backend selects the forward-kNN index structure feeding the expanding
// search.
type Backend string

// Available back-ends. The paper uses CoverTree for low- and
// medium-dimensional data and Scan for its highest-dimensional sets
// (Section 7.1); KDTree and VPTree are additional choices benchmarked in
// the ablations.
const (
	BackendCoverTree Backend = "covertree"
	BackendScan      Backend = "scan"
	BackendKDTree    Backend = "kdtree"
	BackendVPTree    Backend = "vptree"
	// BackendLSH is the approximate back-end (Euclidean locality-sensitive
	// hashing): the expanding search streams only hash-collision candidates,
	// so results trade recall for throughput — the paper's claim (iii)
	// regime. Approximate() reports true, query responses carry an
	// "approximate" marker, and the recall telemetry (rknn_recall_estimate)
	// quantifies the trade live; see DESIGN.md, "Approximate serving tier".
	BackendLSH Backend = "lsh"
)

// Estimator selects how the scale parameter t is derived from the data
// (paper Section 6).
type Estimator string

// Available estimators of intrinsic dimensionality.
const (
	// EstimatorMLE is the maximum-likelihood (Hill) estimator of local
	// intrinsic dimensionality, averaged over a sample.
	EstimatorMLE Estimator = "mle"
	// EstimatorGP is the Grassberger-Procaccia correlation dimension.
	EstimatorGP Estimator = "gp"
	// EstimatorTakens is the Takens correlation-dimension estimator.
	EstimatorTakens Estimator = "takens"
)

// Stats describes the work one query performed; see the package core
// documentation for the meaning of each counter.
type Stats struct {
	ScanDepth     int
	FilterSize    int
	Excluded      int
	LazyAccepts   int
	LazyRejects   int
	Verified      int
	DistanceComps int64
	Omega         float64
}

// Option configures New.
type Option func(*config)

type config struct {
	metric    Metric
	backend   Backend
	scale     float64
	auto      Estimator
	plain     bool // disable the RDT+ candidate reduction
	margin    float64
	adaptive  bool
	compactAt int                 // delta-overlay compaction threshold; 0: default
	quant     bool                // enable the 8-bit scalar-quantization pre-filter
	reg       *telemetry.Registry // nil: telemetry disabled
}

// newConfig applies opts over the defaults and rejects a nil metric.
func newConfig(opts []Option) (config, error) {
	cfg := config{metric: Euclidean, backend: BackendCoverTree, scale: math.NaN(), auto: EstimatorMLE}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.metric == nil {
		return cfg, errors.New("rknnd: nil metric")
	}
	return cfg, nil
}

// engineConfig resolves the query configuration the options describe:
// adaptive, a pinned t, or — when neither — the t estimate returns.
func (cfg config) engineConfig(estimate func() (float64, error)) (engineConfig, error) {
	ec := engineConfig{scale: cfg.scale, plus: !cfg.plain, adaptive: cfg.adaptive, margin: cfg.margin,
		backend: cfg.backend, compactAt: cfg.compactAt, quant: cfg.quant}
	if cfg.adaptive {
		if cfg.margin < 0 {
			return ec, fmt.Errorf("rknnd: scale margin must be non-negative, got %v", cfg.margin)
		}
		ec.scale = 0
		return ec, nil
	}
	if math.IsNaN(ec.scale) {
		var err error
		if ec.scale, err = estimate(); err != nil {
			return ec, err
		}
	}
	if !(ec.scale > 0) {
		return ec, fmt.Errorf("rknnd: scale parameter must be positive, got %v", ec.scale)
	}
	return ec, nil
}

// scaleOn estimates t on ix, an exact index over points: the configured
// estimator plus the margin, clamped to at least 1.
func (cfg config) scaleOn(ix index.Index, points [][]float64) (float64, error) {
	t, err := estimate(cfg.auto, ix, points, cfg.metric)
	if err != nil {
		return 0, fmt.Errorf("rknnd: estimating scale parameter: %w", err)
	}
	return math.Max(t+cfg.margin, 1), nil
}

// WithMetric selects the distance (default Euclidean).
func WithMetric(m Metric) Option { return func(c *config) { c.metric = m } }

// WithBackend selects the forward index (default BackendCoverTree).
func WithBackend(b Backend) Option { return func(c *config) { c.backend = b } }

// WithScale pins the scale parameter t instead of estimating it. Larger t
// trades time for recall; t at least the dataset's MaxGED makes results
// exact (Theorem 1).
func WithScale(t float64) Option { return func(c *config) { c.scale = t } }

// WithAutoScale selects the intrinsic-dimensionality estimator used to set
// t (default EstimatorMLE). Ignored when WithScale is given.
func WithAutoScale(e Estimator) Option { return func(c *config) { c.auto = e } }

// WithScaleMargin adds a safety margin on top of an estimated t: the paper
// observes that the correlation-dimension estimators can slightly
// underestimate the scale needed for high recall (Section 8.1). The margin
// is ignored when WithScale pins t. Default 0.
func WithScaleMargin(m float64) Option { return func(c *config) { c.margin = m } }

// WithPlainRDT disables the RDT+ candidate-set reduction, trading speed on
// large filter sets for the guarantee that results are never false
// positives (RDT+ can mislabel through lazy acceptance; paper Section 4.3).
func WithPlainRDT() Option { return func(c *config) { c.plain = true } }

// defaultCompactionThreshold is the delta size (memtable rows plus
// tombstones) past which a write triggers a background compaction. Large
// enough that the amortized per-write share of the O(n) fold is small, small
// enough that the per-query merge overhead stays bounded.
const defaultCompactionThreshold = 256

// WithCompactionThreshold sets how large the delta overlay (recent inserts
// plus tombstones) may grow before a write triggers a background compaction
// folding it into a fresh base index. Smaller values bound per-query merge
// overhead tighter; larger values amortize the O(n) fold over more writes.
// Values below 1 select the default (256).
func WithCompactionThreshold(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 0
		}
		c.compactAt = n
	}
}

// WithQuantizedFilter enables the 8-bit scalar-quantization candidate
// pre-filter on row-scan back-ends (BackendScan): rows are screened against
// the search bound with sound quantized lower bounds before the exact
// kernel runs, so results are byte-identical with the filter on or off.
// The trained per-dimension min/max codebook is persisted with snapshots
// (Save) and reattached on Load. New fails when the back-end or metric does
// not support the filter.
func WithQuantizedFilter() Option { return func(c *config) { c.quant = true } }

// WithAdaptiveScale re-estimates the scale parameter online at every step
// of each query's expanding search instead of fixing it up front — the
// dynamic adjustment the paper poses as future work (Section 9). WithScale
// and WithAutoScale are ignored when this is set; WithScaleMargin acts as
// the estimate multiplier minus one (margin 1 doubles the online estimate).
func WithAdaptiveScale() Option { return func(c *config) { c.adaptive = true } }

// Searcher answers reverse k-nearest neighbor queries over an indexed
// dataset. It is safe for unrestricted concurrent use, including queries
// racing with Insert and Delete: queries run lock-free against an immutable
// snapshot of the index, and each update installs a fresh snapshot with one
// atomic pointer swap (copy-on-write; see DESIGN.md). A query therefore
// always observes a consistent dataset — the one current when it started —
// never a half-applied update.
//
// A Searcher is the one-shard case of the scatter-gather engine: its query,
// batch and write entry points are the shared front end's (frontEnd,
// shard.go) over a shard set pinning its single engine, whose answer is the
// global answer with no merge (shard.go). The engine supplies the
// per-index surfaces: Save, the quantized filter, compaction, the recall
// oracle and the shard-serving probes.
type Searcher struct {
	inProcess
	*engine
}

// engineConfig is the query configuration an engine answers with; every
// engine of one front end shares it.
type engineConfig struct {
	scale    float64
	plus     bool
	adaptive bool
	margin   float64
	backend  Backend // recorded so Save can round-trip the index

	// compactAt is the delta-overlay size past which a write schedules a
	// background compaction (0 selects defaultCompactionThreshold).
	compactAt int
	// quant records that the quantized pre-filter was requested, so Save
	// marks the snapshot and new shards train their own codebook.
	quant bool
}

// engine is one in-process shard: the copy-on-write index snapshot with
// its memoized query engines, the overlay writes, and compaction. A
// Searcher serves one; a ShardedSearcher one per populated shard.
type engine struct {
	engineConfig

	snap atomic.Pointer[snapshot]
	mu   sync.Mutex // serializes writes (writers clone, then swap)

	// fold is held by the one compaction folding at a time, and
	// compactions counts the folds performed over the engine's lifetime.
	fold        sync.Mutex
	compactions atomic.Int64

	// queries counts the scatter visits this engine served (ShardStats).
	queries atomic.Int64

	// traceRing, when set (EnableTracing), receives background compaction
	// traces — compactions have no request context, so each fold records
	// itself as its own root trace. compactHist, when set (EnableTelemetry),
	// observes fold durations; every engine of a front end stores the same
	// per-backend histogram, so the series sums across shards.
	traceRing   atomic.Pointer[trace.Ring]
	compactHist atomic.Pointer[telemetry.Histogram]
}

// newEngine serves ix under cfg, behind a delta overlay when the back-end
// is dynamic.
func newEngine(cfg engineConfig, ix index.Index) *engine {
	eng := &engine{engineConfig: cfg}
	eng.snap.Store(&snapshot{ix: wrapOverlay(ix)})
	return eng
}

// snapshot is one immutable generation of the index, together with its
// memoized query engines. Queriers are stateless per query and safe for
// concurrent use, so one Querier per reverse-neighbor rank k serves every
// query against this generation — queries on a warm rank allocate no
// engine state at all.
type snapshot struct {
	ix       index.Index
	queriers sync.Map // k int -> *core.Querier
}

// querier returns the snapshot's memoized query engine for rank k,
// constructing it on first use.
func (sn *snapshot) querier(eng *engine, k int) (*core.Querier, error) {
	if qr, ok := sn.queriers.Load(k); ok {
		return qr.(*core.Querier), nil
	}
	var qr *core.Querier
	var err error
	if eng.adaptive {
		qr, err = core.NewAdaptiveQuerier(sn.ix, core.AdaptiveParams{
			K:          k,
			Multiplier: 1 + eng.margin,
			Plus:       eng.plus,
		})
	} else {
		qr, err = core.NewQuerier(sn.ix, core.Params{K: k, T: eng.scale, Plus: eng.plus})
	}
	if err != nil {
		return nil, err
	}
	actual, _ := sn.queriers.LoadOrStore(k, qr)
	return actual.(*core.Querier), nil
}

// New indexes points and returns a Searcher. The points slice is retained
// by reference and must not be mutated afterwards.
func New(points [][]float64, opts ...Option) (*Searcher, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	ix, err := harness.BuildBackend(string(cfg.backend), points, cfg.metric)
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	if cfg.quant {
		if err := enableQuantFilter(ix, nil); err != nil {
			return nil, err
		}
	}
	// Dynamic back-ends serve writes through a delta overlay: queries merge
	// a small memtable with the immutable base, so Insert/Delete cost
	// O(delta) instead of an O(n) backend clone. Static back-ends stay bare
	// (their writes are rejected anyway). t is estimated on the index being
	// served: no throwaway build.
	ix = wrapOverlay(ix)
	ec, err := cfg.engineConfig(func() (float64, error) { return cfg.scaleOn(ix, points) })
	if err != nil {
		return nil, err
	}
	if !ec.adaptive {
		ec.margin = 0 // folded into t; a Searcher snapshot records it only when adaptive
	}
	s := newSearcher(newEngine(ec, ix))
	if cfg.reg != nil {
		s.EnableTelemetry(cfg.reg)
	}
	return s, nil
}

// newSearcher puts eng behind a front end whose one-shard set always pins
// it — even when empty, so the engine's own errors surface — with the
// identity shard map over its ID span.
func newSearcher(eng *engine) *Searcher {
	ix := eng.snap.Load().ix
	ls := &localSet{engineConfig: eng.engineConfig, metric: ix.Metric(), slots: make([]atomic.Pointer[engine], 1)}
	ls.slots[0].Store(eng)
	m, _ := index.RebuildShardMap(1, eng.IDSpan())
	_, dynamic := ix.(index.Cloner)
	return &Searcher{inProcess: inProcess{newFrontEnd(ls, ix.Dim(), false, dynamic, m)}, engine: eng}
}

// estimateCalls counts scale estimations; the persistence tests assert the
// recovery path never pays one.
var estimateCalls atomic.Int64

func estimate(e Estimator, ix index.Index, points [][]float64, metric Metric) (float64, error) {
	estimateCalls.Add(1)
	switch e {
	case EstimatorMLE:
		return lid.MLE(ix, lid.DefaultMLEOptions())
	case EstimatorGP:
		return lid.GrassbergerProcaccia(points, metric, lid.DefaultPairwiseOptions())
	case EstimatorTakens:
		return lid.Takens(points, metric, lid.DefaultPairwiseOptions())
	default:
		return 0, fmt.Errorf("unknown estimator %q", e)
	}
}

// Len returns the number of indexed points.
func (eng *engine) Len() int { return eng.snap.Load().ix.Len() }

// Neighbor is a dataset member paired with its distance from a query.
type Neighbor struct {
	ID   int
	Dist float64
}

// Point returns the coordinates of a dataset member. The returned slice is
// owned by the Searcher and must not be modified.
func (eng *engine) Point(id int) []float64 { return eng.snap.Load().ix.Point(id) }

// insert appends pts, already validated by the front end, to a clone of
// the current snapshot and publishes it with one swap — all or none — and
// returns their IDs in order. Only the delta overlay is cloned (O(delta),
// not O(n)), so in-flight queries keep reading their frozen snapshot; the
// O(n) cost is paid by a background compaction once the delta exceeds the
// threshold (WithCompactionThreshold).
func (eng *engine) insert(pts [][]float64) ([]int, error) {
	defer eng.maybeCompact()
	eng.mu.Lock()
	defer eng.mu.Unlock()
	cl, ok := eng.snap.Load().ix.(index.Cloner)
	if !ok {
		return nil, errors.New("rknnd: back-end does not support insertion")
	}
	next := cl.Clone()
	ids := make([]int, len(pts))
	for i, p := range pts {
		id, err := next.Insert(p)
		if err != nil {
			return nil, fmt.Errorf("rknnd: %w", err)
		}
		ids[i] = id
	}
	eng.snap.Store(&snapshot{ix: next})
	return ids, nil
}

// delete tombstones id with the same copy-on-write discipline as insert,
// reporting whether it was live.
func (eng *engine) delete(id int) (bool, error) {
	defer eng.maybeCompact()
	eng.mu.Lock()
	defer eng.mu.Unlock()
	cur := eng.snap.Load().ix
	cl, ok := cur.(index.Cloner)
	if !ok {
		return false, errors.New("rknnd: back-end does not support deletion")
	}
	// Settle absent and already-deleted IDs against the current snapshot
	// before paying for the clone.
	if lv, ok := cur.(index.Liveness); ok && !lv.Live(id) {
		return false, nil
	}
	next := cl.Clone()
	if !next.Delete(id) {
		return false, nil // unchanged: keep the current snapshot warm
	}
	eng.snap.Store(&snapshot{ix: next})
	return true, nil
}

// wrapOverlay puts a delta overlay over a dynamic (clonable) index so the
// write path clones O(delta) instead of O(n). Static indexes and indexes
// already wrapped pass through unchanged.
func wrapOverlay(ix index.Index) index.Index {
	if _, ok := ix.(*index.Overlay); ok {
		return ix
	}
	if _, ok := ix.(index.Cloner); ok {
		return index.NewOverlay(ix)
	}
	return ix
}

// enableQuantFilter attaches the quantized pre-filter to a bare (unwrapped)
// back-end, translating the capability failure into a configuration error.
// cb is nil on a fresh build (train on the rows) and the persisted codebook
// on a restore (screen with the original bounds).
func enableQuantFilter(ix index.Index, cb *vecmath.Codebook) error {
	qf, ok := ix.(index.QuantFiltered)
	if !ok {
		return fmt.Errorf("rknnd: quantized filter requires a row-scan back-end (BackendScan)")
	}
	if err := qf.EnableQuantFilter(cb); err != nil {
		return fmt.Errorf("rknnd: %w", err)
	}
	return nil
}

// QuantFiltered reports whether the quantized candidate pre-filter is
// active.
func (eng *engine) QuantFiltered() bool { return eng.quant }

// QuantFilterStats returns the quantized pre-filter's monotone lifetime
// totals: candidate rows admitted to exact verification and rows screened
// out by the quantized lower bounds. Both are 0 when the filter is off.
func (eng *engine) QuantFilterStats() (admitted, screened int64) {
	if qf, ok := eng.snap.Load().ix.(index.QuantFiltered); ok {
		return qf.QuantFilterStats()
	}
	return 0, 0
}

// quantCodebook returns the active codebook (nil when the filter is off),
// for Save.
func (eng *engine) quantCodebook() *vecmath.Codebook {
	if qf, ok := eng.snap.Load().ix.(index.QuantFiltered); ok {
		return qf.QuantCodebook()
	}
	return nil
}

// compactThreshold returns the effective delta-overlay compaction
// threshold.
func (eng *engine) compactThreshold() int {
	if eng.compactAt > 0 {
		return eng.compactAt
	}
	return defaultCompactionThreshold
}

// MemtableLen returns the number of delta-overlay memtable rows awaiting
// compaction — 0 for static back-ends and right after a compaction.
func (eng *engine) MemtableLen() int {
	if ov, ok := eng.snap.Load().ix.(*index.Overlay); ok {
		return ov.MemtableLen()
	}
	return 0
}

// Compactions returns how many delta-overlay compactions (O(n) folds of the
// memtable and tombstones into a fresh base index) the Searcher has
// performed.
func (eng *engine) Compactions() int64 { return eng.compactions.Load() }

// maybeCompact schedules a background compaction when the published delta
// overlay has grown past the threshold. At most one compaction runs at a
// time; writers are never blocked by it.
func (eng *engine) maybeCompact() {
	ov, ok := eng.snap.Load().ix.(*index.Overlay)
	if !ok || ov.Pending() < eng.compactThreshold() {
		return
	}
	if !eng.fold.TryLock() {
		return // a compaction is already folding
	}
	go eng.compact(ov)
}

// compact folds the frozen overlay's delta into a fresh base clone — the
// one O(n) step of the write path, performed off the write lock — then
// rebases the current overlay (which may have accumulated further writes
// meanwhile) onto the folded index and publishes it. A frozen overlay
// whose base is no longer the current one — loaded before a compaction
// that finished since — is discarded: the current rows are not an
// extension of its rows, and rebasing would drop the ones written since.
// Callers must hold eng.fold, which compact releases, and must not hold
// eng.mu.
//
// A compaction has no request context, so when tracing is enabled
// (EnableTracing) each fold records itself as its own root trace
// ("compact") in the ring; the fold duration also feeds
// rknn_compaction_duration_seconds when telemetry is enabled.
func (eng *engine) compact(frozen *index.Overlay) {
	defer eng.fold.Unlock()
	ring := eng.traceRing.Load()
	var tr *trace.Trace
	var fsp *trace.Span
	start := time.Now()
	if ring != nil {
		tr = trace.New("compact", true)
		root := tr.Root()
		root.SetStr("backend", string(eng.backend))
		fsp = root.Child("compact.fold")
		fsp.SetInt("memtable_rows", int64(frozen.MemtableLen()))
		fsp.SetInt("pending", int64(frozen.Pending()))
	}
	folded, err := frozen.Fold()
	fsp.End()
	if err != nil {
		// Base cannot fold (no Cloner): leave the delta in place.
		if tr != nil {
			tr.Root().SetStr("error", err.Error())
			tr.Root().End()
			ring.Put(tr)
		}
		return
	}
	eng.mu.Lock()
	if cur, ok := eng.snap.Load().ix.(*index.Overlay); ok && cur.Base() == frozen.Base() {
		eng.snap.Store(&snapshot{ix: cur.Rebase(frozen, folded)})
		eng.compactions.Add(1)
	}
	eng.mu.Unlock()
	d := time.Since(start)
	if h := eng.compactHist.Load(); h != nil {
		h.Observe(d.Seconds())
	}
	if tr != nil {
		tr.Root().EndWithDuration(d)
		ring.Put(tr)
	}
}

// compactNowRounds bounds the folds compactNow performs, so a continuous
// stream of concurrent writers cannot stall a snapshot forever;
// snapshotRecord tolerates a residually-dirty overlay.
const compactNowRounds = 8

// compactNow folds the current delta synchronously, waiting on the fold
// lock for any background compaction in flight however long it takes.
// Used by the persistence paths so snapshots can ship the base back-end's
// native structure blob.
func (eng *engine) compactNow() {
	for round := 0; round < compactNowRounds; round++ {
		eng.fold.Lock()
		ov, ok := eng.snap.Load().ix.(*index.Overlay)
		if !ok || !ov.Dirty() {
			eng.fold.Unlock()
			return
		}
		eng.compact(ov) // re-check next round: writes may land during the fold
	}
}
