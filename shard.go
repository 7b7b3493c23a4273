package repro

import (
	"context"
	"errors"
	"fmt"
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

// ShardedSearcher answers reverse k-nearest neighbor queries over a
// dataset hash-partitioned across S shards. Each shard is an independent
// copy-on-write engine, so the concurrency contract matches Searcher:
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
// ShardedSearcher supplies the in-process shards behind it (localSet).
type ShardedSearcher struct {
	inProcess
	*localSet
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
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := vecmath.ValidateAllFor(cfg.metric, points); err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	ec, err := cfg.engineConfig(func() (float64, error) { return cfg.fullScale(points) })
	if err != nil {
		return nil, err
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

	ls := &localSet{engineConfig: ec, metric: cfg.metric, slots: make([]atomic.Pointer[engine], shards)}
	dynamic := false
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
		if !dynamic {
			_, dynamic = ix.(index.Cloner)
		}
		ls.slots[s].Store(ls.newEngine(ix))
	}
	ss := &ShardedSearcher{inProcess: inProcess{newFrontEnd(ls, len(points[0]), true, dynamic, m)}, localSet: ls}
	if cfg.reg != nil {
		ss.EnableTelemetry(cfg.reg)
	}
	return ss, nil
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
	eng := ss.slots[s].Load()
	if eng == nil {
		return nil // map-published, engine not yet: the in-flight window
	}
	ix := eng.snap.Load().ix
	if span, _ := liveSpan(ix); l >= span {
		return nil // same window: the engine snapshot trails the map
	}
	return ix.Point(l)
}

// localSet is the shardSet over in-process engines: the S shards of a
// ShardedSearcher, or the single engine of a Searcher. A slot is nil until
// the first point lands on its shard (hash partitioning can leave shards
// empty on small datasets) and is published atomically so queries never
// lock.
type localSet struct {
	engineConfig
	metric Metric
	slots  []atomic.Pointer[engine]

	// traceRing/compactHist are kept here so engines created after
	// EnableTracing / EnableTelemetry (a previously empty shard receiving
	// its first point) inherit them in newEngine.
	traceRing   atomic.Pointer[trace.Ring]
	compactHist atomic.Pointer[telemetry.Histogram]
}

// newEngine wraps a shard index in an engine carrying the set's
// configuration — deliberately without any scale estimation.
func (ls *localSet) newEngine(ix index.Index) *engine {
	if ls.quant {
		// Shards created after construction (a previously empty shard
		// receiving its first point) train their own codebook. Back-end
		// support was validated at construction, so a failure here is
		// impossible; ignore it rather than poison the write path.
		if qf, ok := ix.(index.QuantFiltered); ok && qf.QuantCodebook() == nil {
			_ = qf.EnableQuantFilter(nil)
		}
	}
	eng := newEngine(ls.engineConfig, ix)
	eng.traceRing.Store(ls.traceRing.Load())
	eng.compactHist.Store(ls.compactHist.Load())
	return eng
}

// build builds a fresh engine holding copies of pts, for a shard that
// never held a point until now.
func (ls *localSet) build(shard int, pts [][]float64) (*engine, error) {
	cp := make([][]float64, len(pts))
	for i, p := range pts {
		cp[i] = vecmath.Clone(p)
	}
	ix, err := harness.BuildBackend(string(ls.backend), cp, ls.metric)
	if err != nil {
		return nil, fmt.Errorf("rknnd: shard %d: %w", shard, err)
	}
	return ls.newEngine(ix), nil
}

// publish installs a freshly built engine of n points on a shard and
// returns the local IDs it assigned them, 0..n-1.
func (ls *localSet) publish(shard int, eng *engine, n int) []int {
	ls.slots[shard].Store(eng)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// engines returns the populated shards' engines.
func (ls *localSet) engines() []*engine {
	out := make([]*engine, 0, len(ls.slots))
	for i := range ls.slots {
		if eng := ls.slots[i].Load(); eng != nil {
			out = append(out, eng)
		}
	}
	return out
}

// pin implements shardSet: the current snapshot of every populated shard.
// The front end loads the shard map AFTER this, and writers publish map
// entries before engine snapshots, so every local ID a pinned snapshot can
// return is translatable. Of several shards, empty ones are skipped (their
// querier would refuse the empty index); a single shard is always pinned,
// so its own errors are the answer.
func (ls *localSet) pin() []shardClient {
	cs := make([]shardClient, 0, len(ls.slots))
	for i := range ls.slots {
		eng := ls.slots[i].Load()
		if eng == nil {
			continue
		}
		sn := eng.snap.Load()
		if len(ls.slots) > 1 && sn.ix.Len() == 0 {
			continue
		}
		cs = append(cs, localShard{ls: ls, shard: i, eng: eng, sn: sn})
	}
	return cs
}

// writer implements shardSet: in-memory shards always accept writes.
func (ls *localSet) writer(s int) (shardClient, error) {
	return localShard{ls: ls, shard: s, eng: ls.slots[s].Load()}, nil
}

// Shards returns the shard count.
func (ls *localSet) Shards() int { return len(ls.slots) }

// Len returns the number of live points across all shards.
func (ls *localSet) Len() int {
	n := 0
	for _, eng := range ls.engines() {
		n += eng.Len()
	}
	return n
}

// ShardStats reports per-shard size and traffic counters, the monitoring
// surface behind the server's /statsz shards section.
func (ls *localSet) ShardStats() []ShardInfo {
	out := make([]ShardInfo, len(ls.slots))
	for i := range ls.slots {
		out[i] = ShardInfo{Shard: i}
		if eng := ls.slots[i].Load(); eng != nil {
			out[i].Points = eng.Len()
			out[i].Queries = eng.queries.Load()
		}
	}
	return out
}

// MemtableLen returns the delta-overlay memtable rows awaiting compaction,
// summed across shards.
func (ls *localSet) MemtableLen() int {
	n := 0
	for _, eng := range ls.engines() {
		n += eng.MemtableLen()
	}
	return n
}

// Compactions returns the delta-overlay compactions performed, summed
// across shards.
func (ls *localSet) Compactions() int64 {
	var n int64
	for _, eng := range ls.engines() {
		n += eng.Compactions()
	}
	return n
}

// QuantFiltered reports whether the quantized candidate pre-filter is
// active on the shards.
func (ls *localSet) QuantFiltered() bool { return ls.quant }

// QuantFilterStats returns the quantized pre-filter's monotone lifetime
// totals summed across shards: candidate rows admitted to exact
// verification and rows screened out by the quantized lower bounds.
func (ls *localSet) QuantFilterStats() (admitted, screened int64) {
	for _, eng := range ls.engines() {
		a, s := eng.QuantFilterStats()
		admitted += a
		screened += s
	}
	return admitted, screened
}

// shardSet is the transport-specific half of a front end: how it reaches
// its shards. localSet implements it over in-process engines, durableSet
// over their write-ahead-logged stores, Coordinator over shard daemons.
type shardSet interface {
	// pin returns the read set of one query or batch: a client over every
	// shard that holds live points, each answering from one consistent view.
	pin() []shardClient
	// writer returns the client that applies writes to shard s, or an error
	// when shard s cannot take writes now. The front end asks before it
	// assigns any global ID, so a refusal leaves no trace.
	writer(s int) (shardClient, error)
}

// frontEnd is the one query engine behind all five engine types —
// Searcher and DurableSearcher (one in-process shard), ShardedSearcher and
// DurableShardedSearcher (S of them) and Coordinator (S shard daemons):
// the RkNN and kNN entry points, the batch pool, query validation, the
// per-query telemetry and trace spans, and the write path — hash routing
// (index.ShardOf), shard-map publish and roll-back, the local-ID check,
// and poisoning. Where the shards live is behind set; what differs per
// transport lives in the shard clients (shard_client.go).
type frontEnd struct {
	set shardSet
	// loc holds the in-process engines behind set (nil for a Coordinator):
	// the telemetry, tracing and monitoring surfaces read them.
	loc *localSet
	// sharded marks an engine that presents its shards: per-shard
	// telemetry and shard-numbered write errors. A Searcher's one-shard set
	// presents none of them.
	sharded bool
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

// inProcess is the front end as the in-process engines present it: the
// context-free twins of its entry points and the live telemetry and
// tracing surfaces, which a Coordinator (embedding frontEnd alone) does
// not offer.
type inProcess struct{ *frontEnd }

// newFrontEnd returns the front end over the in-process set ls, publishing
// the shard map m.
func newFrontEnd(ls *localSet, dim int, sharded, dynamic bool, m *index.ShardMap) *frontEnd {
	e := &frontEnd{set: ls, loc: ls, sharded: sharded, metric: ls.metric, dim: dim, scale: ls.scale, backend: ls.backend, dynamic: dynamic}
	e.smap.Store(m)
	return e
}

// Scale returns the scale parameter t in effect (0 when the engine adapts
// t online per query, WithAdaptiveScale).
func (e *frontEnd) Scale() float64 { return e.scale }

// Backend returns the forward-index back-end the engine was built (or
// restored) with.
func (e *frontEnd) Backend() Backend { return e.backend }

// Dim returns the dimensionality of the indexed points.
func (e *frontEnd) Dim() int { return e.dim }

// Approximate reports whether queries run in the approximate regime: the
// back-end streams candidate rankings that may miss true neighbors
// (BackendLSH), so results are not guaranteed exact at any scale parameter.
// The scatter-gather merge is exact relative to the per-shard candidate
// sets, so a sharded engine's approximation is exactly its shards'.
func (e inProcess) Approximate() bool { return e.backend == BackendLSH }

// scatter pins a read set: shard clients first, then the shard map (see
// localSet.pin for why the order matters), plus the per-shard telemetry
// hook when enabled.
func (e *frontEnd) scatter() *scatterSet {
	clients := e.set.pin()
	sc := &scatterSet{clients: clients, m: e.smap.Load(), metric: e.metric, dim: e.dim}
	if p := e.shardTel.Load(); p != nil {
		sts := *p
		sc.onStats = func(i int, st core.Stats) { sts[clients[i].Shard()].observe(st) }
	}
	return sc
}

// scatterCtx is scatter under a "facade.pin" span when ctx is traced;
// members > 0 records a batch's size.
func (e *frontEnd) scatterCtx(ctx context.Context, op string, members int) *scatterSet {
	psp := trace.FromContext(ctx).Child("facade.pin")
	sc := e.scatter()
	if psp != nil {
		psp.SetStr("backend", string(e.backend))
		psp.SetStr("op", op)
		psp.SetInt("shards_pinned", int64(len(sc.clients)))
		if members > 0 {
			psp.SetInt("members", int64(members))
		}
		if e.scale > 0 {
			psp.SetFloat("scale", e.scale)
		}
		psp.End()
	}
	return sc
}

// ReverseKNN returns the IDs of the dataset members that have member qid
// among their k nearest neighbors, sorted ascending. The member itself is
// excluded.
func (e *frontEnd) ReverseKNN(qid, k int) ([]int, error) {
	ids, _, err := e.rknn(context.Background(), qid, nil, k, opRkNN)
	return ids, err
}

// ReverseKNNContext is ReverseKNN with a context. When ctx carries a trace
// span (internal/trace), the query's facade, core and index stages hang
// their spans off it — on a sharded engine one "shard.scatter" child per
// shard (each holding that shard's core stage spans, or its remote.call
// hops) and a "shard.merge" span for the cross-shard re-verification; an
// untraced context costs one nil check per layer.
func (e *frontEnd) ReverseKNNContext(ctx context.Context, qid, k int) ([]int, error) {
	ids, _, err := e.rknn(ctx, qid, nil, k, opRkNN)
	return ids, err
}

// ReverseKNNStats is ReverseKNN with the per-query work counters (on a
// sharded engine summed across shards; Omega is the tightest shard bound).
func (e inProcess) ReverseKNNStats(qid, k int) ([]int, Stats, error) {
	return e.rknn(context.Background(), qid, nil, k, opRkNN)
}

// ReverseKNNStatsContext is ReverseKNNStats with a context, traced like
// ReverseKNNContext.
func (e *frontEnd) ReverseKNNStatsContext(ctx context.Context, qid, k int) ([]int, Stats, error) {
	return e.rknn(ctx, qid, nil, k, opRkNN)
}

// ReverseKNNPoint answers the query for an arbitrary point, which need not
// be a dataset member.
func (e inProcess) ReverseKNNPoint(q []float64, k int) ([]int, error) {
	ids, _, err := e.rknn(context.Background(), -1, q, k, opRkNNPoint)
	return ids, err
}

// ReverseKNNPointContext is ReverseKNNPoint with a context, traced like
// ReverseKNNContext.
func (e *frontEnd) ReverseKNNPointContext(ctx context.Context, q []float64, k int) ([]int, error) {
	ids, _, err := e.rknn(ctx, -1, q, k, opRkNNPoint)
	return ids, err
}

// ReverseKNNPointStats is ReverseKNNPoint with the per-query work counters.
func (e inProcess) ReverseKNNPointStats(q []float64, k int) ([]int, Stats, error) {
	return e.rknn(context.Background(), -1, q, k, opRkNNPoint)
}

// ReverseKNNPointStatsContext is ReverseKNNPointStats with a context,
// traced like ReverseKNNContext.
func (e *frontEnd) ReverseKNNPointStatsContext(ctx context.Context, q []float64, k int) ([]int, Stats, error) {
	return e.rknn(ctx, -1, q, k, opRkNNPoint)
}

// rknn runs one RkNN query over a freshly pinned read set with tracing and
// telemetry. qid >= 0 anchors the query at a member (q is then looked up);
// qid < 0 queries the arbitrary point q.
func (e *frontEnd) rknn(ctx context.Context, qid int, q []float64, k int, op string) ([]int, Stats, error) {
	tel := e.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	ids, st, resolvedQ, err := e.scatterCtx(ctx, op, 0).reverseKNN(ctx, qid, q, k)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("rknnd: %w", err)
	}
	if tel != nil {
		at := tel.observeOp(op, 1, begin)
		tel.observeStats(st, at)
		tel.observeWorkload(op, k, resolvedQ, st, at.Sub(begin), at)
	}
	return ids, st, nil
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

// KNN returns the k forward nearest neighbors of an arbitrary point as
// (id, distance) pairs in ascending distance order — the ordinary
// similarity query, exposed because reverse-neighbor applications almost
// always need it too. A sharded engine k-way merges the per-shard top-k
// lists under the (distance, ID) order.
func (e inProcess) KNN(q []float64, k int) ([]Neighbor, error) {
	return e.KNNContext(context.Background(), q, k)
}

// KNNContext is KNN with a context; a traced request records the forward
// search as one "core.knn" span (with per-shard "shard.scatter" children on
// a sharded engine).
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
	nn, err := e.scatter().knn(ctx, q, k)
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	out := make([]Neighbor, len(nn))
	for i, nb := range nn {
		out[i] = Neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	if tel != nil {
		at := tel.observeOp(opKNN, 1, begin)
		// Forward queries carry no pruning stats, but they are traffic with
		// a region: the sketch sees them with zeroed accumulators.
		tel.observeWorkload(opKNN, k, q, Stats{}, at.Sub(begin), at)
	}
	return out, nil
}

// BatchReverseKNN answers many member queries concurrently on a worker
// pool (0 workers selects all cores; the pool is capped at the batch
// length and at GOMAXPROCS) and returns the per-query ID lists in input
// order. Every member runs; the first failed member in input order fails
// the batch.
func (e inProcess) BatchReverseKNN(qids []int, k, workers int) ([][]int, error) {
	return e.BatchReverseKNNContext(context.Background(), qids, k, workers)
}

// BatchReverseKNNContext is BatchReverseKNN with cancellation: when ctx is
// cancelled mid-batch the pool stops dispatching, drains its in-flight
// queries, and returns ctx's error. The whole batch runs against one
// pinned read set, so in-process results are mutually consistent even
// while Insert/Delete run concurrently. Members count individually in the
// query telemetry and the latency histogram observes the batch call once;
// batch members skip the workload sketch (one batch would flood its top-K
// with its members' cells).
func (e *frontEnd) BatchReverseKNNContext(ctx context.Context, qids []int, k, workers int) ([][]int, error) {
	tel := e.tel.Load()
	var begin time.Time
	if tel != nil {
		begin = time.Now()
	}
	sc := e.scatterCtx(ctx, opBatch, len(qids))
	if k <= 0 {
		return nil, fmt.Errorf("rknnd: core: K must be positive, got %d", k)
	}
	out := make([][]int, len(qids))
	stats := make([]Stats, len(qids))
	errs := make([]error, len(qids))
	err := core.ForEach(ctx, len(qids), workers, func(ctx context.Context, i int) error {
		out[i], stats[i], _, errs[i] = sc.reverseKNN(ctx, qids[i], nil, k)
		return nil // per-member errors are data, not pool failures
	})
	if err != nil {
		return nil, fmt.Errorf("rknnd: %w", err)
	}
	if tel != nil {
		succeeded := 0
		at := tel.observeLatency(opBatch, begin)
		for i, qerr := range errs {
			if qerr == nil {
				succeeded++
				tel.observeStats(stats[i], at)
			}
		}
		tel.countQueries(opBatch, succeeded)
	}
	for i, qerr := range errs {
		if qerr != nil {
			return nil, fmt.Errorf("rknnd: query %d: %w", qids[i], qerr)
		}
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

// Insert adds a point and returns its new ID, when the back-end supports
// dynamic updates (BackendCoverTree, BackendScan and BackendLSH do). The
// paper highlights this property for data warehouse and stream scenarios
// (Section 4). The point goes to its hash-assigned shard, whose engine
// clones only its delta overlay (O(delta), not O(n)) and publishes the
// clone with one atomic swap; updates are serialized, queries never
// blocked. The shard map is published before the shard write, so a
// concurrent query either sees neither or can translate everything it sees
// (an ID caught in that window answers as not-found until the insert
// completes). On a durable engine the write is logged before it is
// acknowledged; a log failure returns an error and disables the store's
// writes, while the applied point stays visible until restart.
func (e inProcess) Insert(p []float64) (int, error) {
	return e.InsertContext(context.Background(), p)
}

// InsertContext is Insert with a context; a traced context records a
// "facade.apply" span covering the lock, shard-map clone, and shard
// mutation (and beneath it a durable engine's WAL append and fsync).
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

// Delete removes the dataset member with the given ID, reporting whether
// it was present. Requires a dynamic back-end. The shard map keeps the ID
// forever (tombstones live in the shard index), so IDs are never reused.
func (e inProcess) Delete(global int) (bool, error) {
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
// fsync). IDs are returned in input order. An empty batch is a no-op. On
// one shard the batch is atomic: every point is inserted or none is
// visible. Across shards, a failure applying one shard's group after the
// map is published (a disk fault or a failed daemon mid-batch) leaves the
// other groups visible, returns the IDs with the error, and — when the
// group was not applied — permanently poisons the write path rather than
// let the shard map's local-ID accounting diverge from the shards (reads
// stay correct; the orphaned IDs answer as not-found).
func (e inProcess) InsertBatch(points [][]float64) ([]int, error) {
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
			err = e.shardErr("batch shard", s, err)
		case !sameLocals(got, idx, locals):
			err = e.poison("shard %d assigned local ids %v, shard map expected %d onwards", s, got, locals[idx[0]])
		case err != nil:
			err = e.shardErr("batch shard", s, err) // applied but not durably logged
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return ids, firstErr
}

// shardErr names shard s in err on a sharded engine; a one-shard engine
// reports its engine's error as is.
func (e *frontEnd) shardErr(what string, s int, err error) error {
	if !e.sharded {
		return err
	}
	return fmt.Errorf("rknnd: %s %d: %w", what, s, err)
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
