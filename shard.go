package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vecmath"
)

// This file is the sharded face of the engine: a ShardedSearcher
// hash-partitions the dataset across S shards, each an independent
// copy-on-write Searcher, and answers every query by scatter-gather —
// fan the query out to all shards, merge the per-shard answers exactly.
//
// The merge is exact because reverse k-NN decomposes over any disjoint
// partition of the dataset: if x is a global reverse neighbor of q then,
// within x's own shard (a subset of the dataset), strictly fewer than k
// points lie closer to x than q does, so x is also a reverse neighbor of q
// within its shard. The union of per-shard results is therefore a superset
// of the global result, and one exact verification of each candidate
// against the globally merged k-NN distance (d_k(x) >= d(q,x), the paper's
// refinement test) filters it down to exactly the global answer. Forward
// kNN merges even more directly: the global top-k is the top-k of the
// per-shard top-k lists. See DESIGN.md, "Sharded scatter-gather".

// ShardInfo describes one shard of a ShardedSearcher for monitoring.
type ShardInfo struct {
	// Shard is the shard number in [0, Shards()).
	Shard int `json:"shard"`
	// Points is the number of live points the shard currently holds.
	Points int `json:"points"`
	// Queries counts scatter-gather visits this shard has served.
	Queries int64 `json:"queries"`
}

// shardSlot is the engine holder of one shard. The engine pointer is nil
// until the first point lands on the shard (hash partitioning can leave
// shards empty on small datasets) and is published atomically so queries
// never lock.
type shardSlot struct {
	eng     atomic.Pointer[Searcher]
	queries atomic.Int64
}

// ShardedSearcher answers reverse k-nearest neighbor queries over a
// dataset hash-partitioned across S shards. Each shard is an independent
// copy-on-write Searcher, so the concurrency contract matches Searcher:
// unrestricted concurrent queries racing Insert/Delete, with every
// per-shard read served from one frozen snapshot. Global IDs are stable
// and dense in insertion order, exactly like Searcher IDs, and are mapped
// to (shard, local) placements by an immutable index.ShardMap published
// with the same copy-on-write discipline.
//
// Results are deterministic: merges order by (distance, ID) and candidate
// verification recomputes the global k-NN test exactly, so the answer does
// not depend on the shard count — the property the metamorphic conformance
// suite pins (shard_conformance_test.go).
//
// The query and write entry points are the shared front end's (frontEnd);
// ShardedSearcher supplies the in-process shards behind it.
type ShardedSearcher struct {
	*frontEnd

	plus      bool
	adaptive  bool
	margin    float64
	compactAt int // per-shard delta-overlay compaction threshold; 0: default
	quant     bool

	slots []*shardSlot

	// traceRing/compactHist mirror the Searcher fields. They are kept here
	// as the source of truth so shard engines created after EnableTracing /
	// EnableTelemetry (a previously empty shard receiving its first point)
	// inherit them in newShardEngine.
	traceRing   atomic.Pointer[trace.Ring]
	compactHist atomic.Pointer[telemetry.Histogram]
}

// NewSharded partitions points across the given number of shards and
// returns a ShardedSearcher. The options are those of New; when the scale
// parameter is estimated, it is estimated once over the full dataset (not
// per shard), so a ShardedSearcher and a Searcher over the same points use
// the same t. The points slice is retained by reference.
func NewSharded(points [][]float64, shards int, opts ...Option) (*ShardedSearcher, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("rknnd: shard count must be positive, got %d", shards)
	}
	cfg := config{
		metric:  Euclidean,
		backend: BackendCoverTree,
		scale:   math.NaN(),
		auto:    EstimatorMLE,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.metric == nil {
		return nil, errors.New("rknnd: nil metric")
	}
	if err := vecmath.ValidateAllFor(cfg.metric, points); err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}

	scale := cfg.scale
	if cfg.adaptive {
		if cfg.margin < 0 {
			return nil, fmt.Errorf("rknnd: scale margin must be non-negative, got %v", cfg.margin)
		}
		scale = 0
	} else if math.IsNaN(scale) {
		var err error
		if scale, err = cfg.fullScale(points); err != nil {
			return nil, err
		}
	}
	if !cfg.adaptive && !(scale > 0) {
		return nil, fmt.Errorf("rknnd: scale parameter must be positive, got %v", scale)
	}

	m, err := index.NewShardMap(shards)
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	parts := make([][][]float64, shards)
	for range points {
		g, s, _ := m.Assign()
		parts[s] = append(parts[s], points[g])
	}

	ss := &ShardedSearcher{
		frontEnd: &frontEnd{
			metric:  cfg.metric,
			dim:     len(points[0]),
			scale:   scale,
			backend: cfg.backend,
		},
		plus:      !cfg.plain,
		adaptive:  cfg.adaptive,
		margin:    cfg.margin,
		compactAt: cfg.compactAt,
		quant:     cfg.quant,
		slots:     make([]*shardSlot, shards),
	}
	ss.set = ss
	for i := range ss.slots {
		ss.slots[i] = &shardSlot{}
	}
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		ix, err := harness.BuildBackend(string(cfg.backend), part, cfg.metric)
		if err != nil {
			return nil, fmt.Errorf("rknnd: shard %d: %w", s, err)
		}
		if cfg.quant {
			if err := enableQuantFilter(ix, nil); err != nil {
				return nil, err
			}
		}
		if !ss.dynamic {
			_, ss.dynamic = ix.(index.Cloner)
		}
		ss.slots[s].eng.Store(ss.newShardEngine(ix))
	}
	ss.smap.Store(m)
	if cfg.reg != nil {
		ss.EnableTelemetry(cfg.reg)
	}
	return ss, nil
}

// newShardEngine wraps an index in a Searcher carrying the sharded
// engine's configuration — deliberately without any scale estimation.
func (ss *ShardedSearcher) newShardEngine(ix index.Index) *Searcher {
	s := &Searcher{
		scale:     ss.scale,
		plus:      ss.plus,
		adaptive:  ss.adaptive,
		margin:    ss.margin,
		backend:   ss.backend,
		compactAt: ss.compactAt,
		quant:     ss.quant,
	}
	if ss.quant {
		// Shards created after construction (a previously empty shard
		// receiving its first point) train their own codebook. NewSharded
		// already validated back-end support, so a failure here is
		// impossible; ignore it rather than poison the write path.
		if qf, ok := ix.(index.QuantFiltered); ok && qf.QuantCodebook() == nil {
			_ = qf.EnableQuantFilter(nil)
		}
	}
	s.snap.Store(&snapshot{ix: wrapOverlay(ix)})
	if ring := ss.traceRing.Load(); ring != nil {
		s.traceRing.Store(ring)
	}
	if h := ss.compactHist.Load(); h != nil {
		s.compactHist.Store(h)
	}
	return s
}

// Shards returns the shard count.
func (ss *ShardedSearcher) Shards() int { return len(ss.slots) }

// Approximate reports whether the shards run in the approximate regime
// (BackendLSH); see Searcher.Approximate. The scatter-gather merge is exact
// relative to the per-shard candidate sets, so the approximation is exactly
// the shards' own.
func (ss *ShardedSearcher) Approximate() bool { return ss.backend == BackendLSH }

// Len returns the number of live points across all shards.
func (ss *ShardedSearcher) Len() int {
	n := 0
	for _, slot := range ss.slots {
		if eng := slot.eng.Load(); eng != nil {
			n += eng.Len()
		}
	}
	return n
}

// ShardStats reports per-shard size and traffic counters, the monitoring
// surface behind the server's /statsz shards section.
func (ss *ShardedSearcher) ShardStats() []ShardInfo {
	out := make([]ShardInfo, len(ss.slots))
	for i, slot := range ss.slots {
		out[i] = ShardInfo{Shard: i, Queries: slot.queries.Load()}
		if eng := slot.eng.Load(); eng != nil {
			out[i].Points = eng.Len()
		}
	}
	return out
}

// Point returns the coordinates of a dataset member by global ID. The
// returned slice is owned by the engine and must not be modified. Like
// Searcher.Point, it panics on IDs that were never assigned. An ID whose
// assigning insert is still in flight — the map entry is published before
// the shard engine applies the point (the writer ordering) — is treated as
// not-found and returns nil, the same semantics member queries racing a
// write resolve to (ErrDeleted); an ID returned by Insert is always
// resolvable (Insert publishes before returning).
func (ss *ShardedSearcher) Point(global int) []float64 {
	m := ss.smap.Load()
	s, l, ok := m.Locate(global)
	if !ok {
		panic(fmt.Sprintf("rknnd: point id %d out of range [0,%d)", global, m.Len()))
	}
	eng := ss.slots[s].eng.Load()
	if eng == nil {
		return nil // map-published, engine not yet: the in-flight window
	}
	ix := eng.snap.Load().ix
	if lv, ok := ix.(index.Liveness); ok {
		if l >= lv.IDSpan() {
			return nil // same window: the engine snapshot trails the map
		}
	} else if l >= ix.Len() {
		return nil
	}
	return ix.Point(l)
}

// MemtableLen returns the delta-overlay memtable rows awaiting compaction,
// summed across shards.
func (ss *ShardedSearcher) MemtableLen() int {
	n := 0
	for _, slot := range ss.slots {
		if eng := slot.eng.Load(); eng != nil {
			n += eng.MemtableLen()
		}
	}
	return n
}

// Compactions returns the delta-overlay compactions performed, summed
// across shards.
func (ss *ShardedSearcher) Compactions() int64 {
	var n int64
	for _, slot := range ss.slots {
		if eng := slot.eng.Load(); eng != nil {
			n += eng.Compactions()
		}
	}
	return n
}

// QuantFiltered reports whether the quantized candidate pre-filter is
// active on the shards.
func (ss *ShardedSearcher) QuantFiltered() bool { return ss.quant }

// QuantFilterStats returns the quantized pre-filter's monotone lifetime
// totals summed across shards: candidate rows admitted to exact
// verification and rows screened out by the quantized lower bounds.
func (ss *ShardedSearcher) QuantFilterStats() (admitted, screened int64) {
	for _, slot := range ss.slots {
		if eng := slot.eng.Load(); eng != nil {
			a, s := eng.QuantFilterStats()
			admitted += a
			screened += s
		}
	}
	return admitted, screened
}

// buildShardEngine builds a fresh engine holding copies of pts, for a
// shard that never held a point until now.
func (ss *ShardedSearcher) buildShardEngine(shard int, pts [][]float64) (*Searcher, error) {
	cp := make([][]float64, len(pts))
	for i, p := range pts {
		cp[i] = vecmath.Clone(p)
	}
	ix, err := harness.BuildBackend(string(ss.backend), cp, ss.metric)
	if err != nil {
		return nil, fmt.Errorf("rknnd: shard %d: %w", shard, err)
	}
	return ss.newShardEngine(ix), nil
}

// pin implements shardSet: the current snapshot of every non-empty shard.
// The front end loads the shard map AFTER this, and writers publish map
// entries before engine snapshots, so every local ID a pinned snapshot can
// return is translatable.
func (ss *ShardedSearcher) pin() []shardClient {
	cs := make([]shardClient, 0, len(ss.slots))
	for i, slot := range ss.slots {
		eng := slot.eng.Load()
		if eng == nil {
			continue
		}
		sn := eng.snap.Load()
		if sn.ix.Len() == 0 {
			continue
		}
		cs = append(cs, localShard{ss: ss, shard: i, eng: eng, sn: sn})
	}
	return cs
}

// writer implements shardSet: in-memory shards always accept writes.
func (ss *ShardedSearcher) writer(s int) (shardClient, error) {
	return localShard{ss: ss, shard: s, eng: ss.slots[s].eng.Load()}, nil
}

// shardSet is the transport-specific half of a front end: how it reaches
// its shards. ShardedSearcher and DurableShardedSearcher implement it over
// in-process shards, Coordinator over shard daemons.
type shardSet interface {
	// pin returns the read set of one query or batch: a client over every
	// shard that holds live points, each answering from one consistent view.
	pin() []shardClient
	// writer returns the client that applies writes to shard s, or an error
	// when shard s cannot take writes now. The front end asks before it
	// assigns any global ID, so a refusal leaves no trace.
	writer(s int) (shardClient, error)
}

// frontEnd is the one scatter-gather engine behind ShardedSearcher and
// Coordinator: the RkNN and kNN entry points, the batch pool, query
// validation, the per-query telemetry and trace spans, and the write path —
// hash routing (index.ShardOf), shard-map publish and roll-back, the
// local-ID check, and poisoning. Where the shards live is behind set; what
// differs per transport lives in the shard clients (shard_client.go).
type frontEnd struct {
	set     shardSet
	metric  Metric
	dim     int
	scale   float64
	backend Backend
	dynamic bool // the shards accept Insert and Delete

	smap atomic.Pointer[index.ShardMap]
	mu   sync.Mutex // serializes writes across the map and all shards

	// broken permanently poisons the write path once the shard map and a
	// shard disagree on local IDs: a batch group no shard applied after
	// its IDs were published, or a shard acknowledging a write under an
	// unexpected local ID. Reads stay correct — orphaned IDs answer as
	// not-found — but further writes would corrupt the map's local-ID
	// accounting, so they are all refused. Guarded by mu.
	broken error

	// tel/shardTel aggregate engine-level and per-shard query metrics when
	// telemetry is enabled; nil when disabled. Published atomically, like
	// every read-path structure here.
	tel      atomic.Pointer[engineTelemetry]
	shardTel atomic.Pointer[[]*shardTelemetry]
}

// Scale returns the scale parameter t in effect on every shard (0 when
// adaptive).
func (e *frontEnd) Scale() float64 { return e.scale }

// Backend returns the forward-index back-end of the shards.
func (e *frontEnd) Backend() Backend { return e.backend }

// Dim returns the dimensionality of the indexed points.
func (e *frontEnd) Dim() int { return e.dim }

// scatter pins a read set: shard clients first, then the shard map (see
// ShardedSearcher.pin for why the order matters), plus the per-shard
// telemetry hook when enabled.
func (e *frontEnd) scatter() *scatterSet {
	clients := e.set.pin()
	sc := &scatterSet{clients: clients, m: e.smap.Load(), metric: e.metric, dim: e.dim}
	if p := e.shardTel.Load(); p != nil {
		sts := *p
		sc.onStats = func(i int, st core.Stats) { sts[clients[i].Shard()].observe(st) }
	}
	return sc
}

// scatterCtx is scatter under a "facade.pin" span when ctx is traced.
func (e *frontEnd) scatterCtx(ctx context.Context) *scatterSet {
	psp := trace.FromContext(ctx).Child("facade.pin")
	sc := e.scatter()
	if psp != nil {
		psp.SetStr("backend", string(e.backend))
		psp.SetInt("shards_pinned", int64(len(sc.clients)))
		if e.scale > 0 {
			psp.SetFloat("scale", e.scale)
		}
		psp.End()
	}
	return sc
}

// ReverseKNN returns the global IDs of the dataset members that have
// member qid among their k nearest neighbors, sorted ascending. The member
// itself is excluded.
func (e *frontEnd) ReverseKNN(qid, k int) ([]int, error) {
	return e.ReverseKNNContext(context.Background(), qid, k)
}

// ReverseKNNContext is ReverseKNN with a context. When ctx carries a trace
// span, the scatter records one "shard.scatter" child per shard (each
// containing that shard's core stage spans, or its remote.call hops) and
// the cross-shard re-verification a "shard.merge" span; an untraced
// context costs one nil check per layer.
func (e *frontEnd) ReverseKNNContext(ctx context.Context, qid, k int) ([]int, error) {
	ids, _, err := e.reverseKNN(ctx, e.scatterCtx(ctx), qid, nil, k, opRkNN)
	return ids, err
}

// ReverseKNNStats is ReverseKNN with aggregated per-query work counters
// (summed across shards; Omega is the tightest shard bound).
func (e *frontEnd) ReverseKNNStats(qid, k int) ([]int, Stats, error) {
	return e.ReverseKNNStatsContext(context.Background(), qid, k)
}

// ReverseKNNStatsContext is ReverseKNNStats with a context, traced like
// ReverseKNNContext.
func (e *frontEnd) ReverseKNNStatsContext(ctx context.Context, qid, k int) ([]int, Stats, error) {
	return e.reverseKNN(ctx, e.scatterCtx(ctx), qid, nil, k, opRkNN)
}

// ReverseKNNPoint answers the query for an arbitrary point, which need not
// be a dataset member.
func (e *frontEnd) ReverseKNNPoint(q []float64, k int) ([]int, error) {
	return e.ReverseKNNPointContext(context.Background(), q, k)
}

// ReverseKNNPointContext is ReverseKNNPoint with a context, traced like
// ReverseKNNContext.
func (e *frontEnd) ReverseKNNPointContext(ctx context.Context, q []float64, k int) ([]int, error) {
	ids, _, err := e.reverseKNN(ctx, e.scatterCtx(ctx), -1, q, k, opRkNNPoint)
	return ids, err
}

// ReverseKNNPointStats is ReverseKNNPoint with the aggregated counters.
func (e *frontEnd) ReverseKNNPointStats(q []float64, k int) ([]int, Stats, error) {
	return e.ReverseKNNPointStatsContext(context.Background(), q, k)
}

// ReverseKNNPointStatsContext is ReverseKNNPointStats with a context,
// traced like ReverseKNNContext.
func (e *frontEnd) ReverseKNNPointStatsContext(ctx context.Context, q []float64, k int) ([]int, Stats, error) {
	return e.reverseKNN(ctx, e.scatterCtx(ctx), -1, q, k, opRkNNPoint)
}

// reverseKNN is the scatter-gather RkNN query over a pinned read set —
// the generic algorithm of scatterSet.reverseKNN plus the telemetry. qid
// >= 0 anchors the query at a member (q is then looked up); qid < 0
// queries the arbitrary point q. op labels the query in the engine
// telemetry (batch members record per query here, unlike the unsharded
// batch, whose pool hides per-member timing; they also leave the latency
// histogram and the workload sketch to the batch call itself, matching the
// unsharded engine's semantics).
func (e *frontEnd) reverseKNN(ctx context.Context, sc *scatterSet, qid int, q []float64, k int, op string) ([]int, Stats, error) {
	tel := e.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	ids, st, resolvedQ, err := sc.reverseKNN(ctx, qid, q, k)
	if err != nil {
		return nil, Stats{}, err
	}
	if tel != nil {
		tel.countQueries(op, 1)
		d := time.Since(begin)
		at := begin.Add(d)
		if op != opBatch {
			tel.ops[op].window.Observe(d.Seconds(), at)
		}
		tel.observeStats(st, at)
		// Batch members skip the sketch like the unsharded engine: the
		// pool hides per-member timing, and one batch would flood the
		// top-K with its members' cells.
		if op != opBatch {
			tel.observeWorkload(op, k, resolvedQ, st, d, at)
		}
	}
	return ids, st, nil
}

// wrapShardErr prefixes shard-level errors with the facade's rknnd tag.
func wrapShardErr(err error) error {
	return fmt.Errorf("rknnd: %w", err)
}

// checkPoint validates a query or insert point against the metric and the
// index dimension.
func (e *frontEnd) checkPoint(p []float64, what string) error {
	if err := vecmath.ValidateFor(e.metric, p); err != nil {
		return fmt.Errorf("rknnd: %w", err)
	}
	if len(p) != e.dim {
		return fmt.Errorf("rknnd: %s dimension %d, index dimension %d", what, len(p), e.dim)
	}
	return nil
}

// KNN returns the k global forward nearest neighbors of an arbitrary point
// in ascending (distance, ID) order — the per-shard top-k lists k-way
// merged.
func (e *frontEnd) KNN(q []float64, k int) ([]Neighbor, error) {
	return e.KNNContext(context.Background(), q, k)
}

// KNNContext is KNN with a context; a traced context records one
// "core.knn" root stage with per-shard "shard.scatter" children.
func (e *frontEnd) KNNContext(ctx context.Context, q []float64, k int) ([]Neighbor, error) {
	tel := e.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	ksp := trace.FromContext(ctx).Child("core.knn")
	if ksp != nil {
		ksp.SetStr("backend", string(e.backend))
		ksp.SetInt("k", int64(k))
		ctx = trace.With(ctx, ksp)
		defer ksp.End()
	}
	if err := e.checkPoint(q, "query"); err != nil {
		return nil, err
	}
	merged, err := e.scatter().knn(ctx, q, k)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(merged))
	for i, nb := range merged {
		out[i] = Neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	if tel != nil {
		tel.observeOp(opKNN, 1, begin)
	}
	return out, nil
}

// BatchReverseKNN answers many member queries concurrently on a worker
// pool (0 workers selects all cores; the pool is capped at the batch
// length and at GOMAXPROCS) and returns the per-query ID lists in input
// order. The first per-query error aborts the batch.
func (e *frontEnd) BatchReverseKNN(qids []int, k, workers int) ([][]int, error) {
	return e.BatchReverseKNNContext(context.Background(), qids, k, workers)
}

// BatchReverseKNNContext is BatchReverseKNN with cancellation. The whole
// batch runs against one pinned read set, so in-process results are
// mutually consistent even while Insert/Delete run concurrently. The pool
// scaffolding is core.ForEach — the same clamps and cancellation contract
// as the single-engine batch.
func (e *frontEnd) BatchReverseKNNContext(ctx context.Context, qids []int, k, workers int) ([][]int, error) {
	tel := e.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	sc := e.scatter()
	out := make([][]int, len(qids))
	errs := make([]error, len(qids))
	err := core.ForEach(ctx, len(qids), workers, func(ctx context.Context, i int) error {
		ids, _, err := e.reverseKNN(ctx, sc, qids[i], nil, k, opBatch)
		if err != nil {
			errs[i] = err
			return err
		}
		out[i] = ids
		return nil
	})
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		for i, qerr := range errs {
			if qerr != nil && !errors.Is(qerr, context.Canceled) {
				return nil, fmt.Errorf("rknnd: query %d: %w", qids[i], qerr)
			}
		}
		for i, qerr := range errs {
			if qerr != nil {
				return nil, fmt.Errorf("rknnd: query %d: %w", qids[i], qerr)
			}
		}
		return nil, fmt.Errorf("rknnd: %w", err) // invalid arguments (negative workers)
	}
	if tel != nil {
		// Members already counted themselves in reverseKNN; the batch call
		// contributes the single latency observation.
		tel.observeLatency(opBatch, begin)
	}
	return out, nil
}

// applySpan opens the "facade.apply" span of a write when ctx is traced,
// returning the context the write runs under (shard spans — WAL appends,
// remote calls — nest beneath it).
func applySpan(ctx context.Context, op string) (context.Context, *trace.Span) {
	asp := trace.FromContext(ctx).Child("facade.apply")
	if asp != nil {
		asp.SetStr("op", op)
		ctx = trace.With(ctx, asp)
	}
	return ctx, asp
}

// writable reports why the write path refuses a mutation, if it does.
// Callers hold mu.
func (e *frontEnd) writable(op string) error {
	if !e.dynamic {
		return errors.New("rknnd: back-end does not support " + op)
	}
	return e.broken
}

// poison disables the write path for good; callers hold mu.
func (e *frontEnd) poison(format string, args ...any) error {
	e.broken = fmt.Errorf("rknnd: writes disabled: "+format, args...)
	return e.broken
}

// Insert adds a point to its hash-assigned shard and returns its new
// global ID. Requires a dynamic back-end (BackendCoverTree, BackendScan,
// BackendLSH). The shard map is published before the shard write, so a
// concurrent query either sees neither or can translate everything it sees
// (an ID caught in that window answers as not-found until the insert
// completes).
func (e *frontEnd) Insert(p []float64) (int, error) {
	return e.InsertContext(context.Background(), p)
}

// InsertContext is Insert with a context; a traced context records a
// "facade.apply" span covering the lock, shard-map clone, and shard
// mutation.
func (e *frontEnd) InsertContext(ctx context.Context, p []float64) (int, error) {
	tel := e.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	ctx, asp := applySpan(ctx, "insert")
	defer asp.End()
	g, err := e.insert(ctx, p)
	if tel != nil && err == nil {
		tel.observeOp(opInsert, 1, begin)
	}
	return g, err
}

func (e *frontEnd) insert(ctx context.Context, p []float64) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writable("insertion"); err != nil {
		return 0, err
	}
	if err := e.checkPoint(p, "point"); err != nil {
		return 0, err
	}
	m := e.smap.Load()
	w, err := e.set.writer(index.ShardOf(m.Len(), m.Shards()))
	if err != nil {
		return 0, err
	}
	m2 := m.Clone()
	g, s, l := m2.Assign()
	e.smap.Store(m2)
	local, applied, err := w.Insert(ctx, p)
	if !applied {
		e.smap.Store(m) // the assignment never took effect
		return 0, err
	}
	if local != l {
		e.smap.Store(m)
		return 0, e.poison("shard %d assigned local id %d, shard map expected %d", s, local, l)
	}
	// A non-nil err here was applied but not durably logged: the map entry
	// stays, matching the visible in-memory state.
	return g, err
}

// Delete removes the dataset member with the given global ID, reporting
// whether it was present. Requires a dynamic back-end. The shard map keeps
// the ID forever (tombstones live in the shard index), so global IDs are
// never reused.
func (e *frontEnd) Delete(global int) (bool, error) {
	return e.DeleteContext(context.Background(), global)
}

// DeleteContext is Delete with a context, traced like InsertContext.
func (e *frontEnd) DeleteContext(ctx context.Context, global int) (bool, error) {
	tel := e.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	ctx, asp := applySpan(ctx, "delete")
	defer asp.End()
	applied, err := e.delete(ctx, global)
	if tel != nil && applied && err == nil {
		tel.observeOp(opDelete, 1, begin)
	}
	return applied, err
}

func (e *frontEnd) delete(ctx context.Context, global int) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writable("deletion"); err != nil {
		return false, err
	}
	s, l, ok := e.smap.Load().Locate(global)
	if !ok {
		return false, nil
	}
	w, err := e.set.writer(s)
	if err != nil {
		return false, err
	}
	return w.Delete(ctx, l)
}

// InsertBatch adds many points in one write step: one shard-map clone, one
// lock acquisition, and one write per involved shard (in process: one
// overlay clone and, on a durable engine, one WAL append with at most one
// fsync). IDs are returned in input order. The batch is atomic in the
// common case; a failure applying one shard's group after the map is
// published (a disk fault or a failed daemon mid-batch) leaves the other
// groups visible, returns the IDs with the error, and — when the group was
// not applied — permanently poisons the write path rather than let the
// shard map's local-ID accounting diverge from the shards (reads stay
// correct; the orphaned IDs answer as not-found).
func (e *frontEnd) InsertBatch(points [][]float64) ([]int, error) {
	return e.InsertBatchContext(context.Background(), points)
}

// InsertBatchContext is InsertBatch with a context, traced like
// InsertContext with the batch size attached.
func (e *frontEnd) InsertBatchContext(ctx context.Context, points [][]float64) ([]int, error) {
	if len(points) == 0 {
		return nil, nil
	}
	tel := e.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	ctx, asp := applySpan(ctx, "insert_batch")
	if asp != nil {
		asp.SetInt("points", int64(len(points)))
	}
	defer asp.End()
	ids, err := e.insertBatch(ctx, points)
	if tel != nil && err == nil {
		tel.countQueries(opInsert, len(ids))
		tel.observeLatency(opInsert, begin)
	}
	return ids, err
}

func (e *frontEnd) insertBatch(ctx context.Context, points [][]float64) ([]int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.writable("insertion"); err != nil {
		return nil, err
	}
	for i, p := range points {
		if err := vecmath.ValidateFor(e.metric, p); err != nil {
			return nil, fmt.Errorf("rknnd: batch point %d: %w", i, err)
		}
		if len(p) != e.dim {
			return nil, fmt.Errorf("rknnd: batch point %d: dimension %d, index dimension %d", i, len(p), e.dim)
		}
	}
	// The shard of every batch member is a pure function of the current
	// global count, so the involved shards are known — and asked for
	// writers — before any ID is assigned.
	m := e.smap.Load()
	S := m.Shards()
	groups := make([][]int, S) // shard -> batch indexes, in order
	for i := range points {
		s := index.ShardOf(m.Len()+i, S)
		groups[s] = append(groups[s], i)
	}
	writers := make([]shardClient, S)
	for s, idx := range groups {
		if len(idx) > 0 {
			w, err := e.set.writer(s)
			if err != nil {
				return nil, err
			}
			writers[s] = w
		}
	}

	m2 := m.Clone()
	ids := make([]int, len(points))
	locals := make([]int, len(points))
	for i := range points {
		ids[i], _, locals[i] = m2.Assign()
	}
	e.smap.Store(m2)

	var firstErr error
	for s, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		pts := make([][]float64, len(idx))
		for j, i := range idx {
			pts[j] = points[i]
		}
		got, applied, err := writers[s].InsertBatch(ctx, pts)
		switch {
		case !applied:
			// The map now names IDs no shard holds; a later insert to this
			// shard would receive a local ID the map has already spent.
			e.poison("batch left shard %d inconsistent: %w", s, err)
			err = fmt.Errorf("rknnd: batch shard %d: %w", s, err)
		case !sameLocals(got, idx, locals):
			err = e.poison("shard %d assigned local ids %v, shard map expected %d onwards", s, got, locals[idx[0]])
		case err != nil:
			err = fmt.Errorf("rknnd: batch shard %d: %w", s, err) // applied but not durably logged
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return ids, firstErr
}

// sameLocals reports whether a shard acknowledged a batch group under
// exactly the local IDs the shard map assigned it.
func sameLocals(got, idx, locals []int) bool {
	if len(got) != len(idx) {
		return false
	}
	for j, i := range idx {
		if got[j] != locals[i] {
			return false
		}
	}
	return true
}
