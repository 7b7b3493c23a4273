package repro

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/trace"
	"repro/internal/vecmath"
)

// This file makes "a shard" an interface instead of a struct: the one
// front end of shard.go (frontEnd, behind all five engine types) talks to
// shardClient, and the implementations — localShard over an in-process
// engine (below), durableShard over its write-ahead-logged store
// (shard_persist.go) and remoteShard over HTTP (shard_remote.go) — answer
// the same calls. A Searcher is the one-shard case: its set pins one
// localShard, whose answer is the global answer. The exact-merge argument
// in shard.go never mentions where a shard's index lives, so the
// algorithm is written once here and a Coordinator over networked daemons
// returns byte-identical answers to a ShardedSearcher over goroutines
// (cluster conformance suite, internal/server/cluster_test.go).
//
// All IDs crossing the interface are shard-local; the front end owns the
// ShardMap, and it and its scatter sets are the only layers that
// translate. Verification is batched per shard (Points and KNNBatch take
// slices) so a remote shard costs a constant number of round trips per
// query, not one per candidate.
//
// The write calls report shard-local IDs and whether the mutation was
// applied; the front end checks the IDs against the map and decides what
// a failure means. What differs per transport lives in the clients: an
// in-process write that fails is never applied, a durable write can be
// applied yet fail to log (the map entry then stays), and a remote write
// that fails counts as not applied, is never retried, and on success
// demotes the shard's read replicas until they catch up.

// knnProbe is one forward-kNN probe of the verification stage: the probe
// point, the rank, and the local member ID to exclude (-1 for none). The
// exclusion must travel with the probe — fetching k+1 and dropping the
// member afterwards is not equivalent under duplicate-point distance ties.
type knnProbe struct {
	q    []float64
	k    int
	skip int
}

// shardClient is one shard of a front end. Read calls answer against a
// single consistent view of their shard: localShard pins one snapshot for
// the lifetime of the scatter set; a remote daemon answers each call from
// one snapshot (per-call consistency — see DESIGN.md, "Distributed
// serving", for what that weakens under concurrent writes). Write calls
// run under the front end's write lock and apply to the shard's current
// state.
type shardClient interface {
	// Shard is this client's shard number in the coordinate system of the
	// front end's ShardMap.
	Shard() int
	// CountQuery records one scatter visit in the shard's traffic counter.
	CountQuery()
	// ReverseKNNByID answers a member RkNN query anchored at a local ID,
	// returning local result IDs and the shard's work counters.
	ReverseKNNByID(ctx context.Context, local, k int) ([]int, core.Stats, error)
	// ReverseKNNByPoint answers the query for an external point.
	ReverseKNNByPoint(ctx context.Context, q []float64, k int) ([]int, core.Stats, error)
	// Points resolves local member IDs to coordinates; a nil row marks an
	// ID with no live point (deleted, or an insert still in flight).
	Points(ctx context.Context, locals []int) ([][]float64, error)
	// KNNBatch answers forward-kNN probes (local result IDs), all against
	// one consistent view of the shard.
	KNNBatch(ctx context.Context, probes []knnProbe) ([][]index.Neighbor, error)
	// Insert adds one point and returns its local ID. applied reports that
	// the shard holds the point even when err is set.
	Insert(ctx context.Context, p []float64) (local int, applied bool, err error)
	// InsertBatch adds a group of points in one step and returns their
	// local IDs in input order, with Insert's applied contract.
	InsertBatch(ctx context.Context, pts [][]float64) (locals []int, applied bool, err error)
	// Delete tombstones a local ID, reporting whether it was live.
	Delete(ctx context.Context, local int) (bool, error)
}

// livePoint fetches local ID l from a pinned index view, or nil when the
// view holds no live point under l: a tombstone, or an ID the shard map
// published ahead of the engine snapshot (the in-flight insert window).
func livePoint(ix index.Index, l int) []float64 {
	if l < 0 {
		return nil
	}
	if lv, ok := ix.(index.Liveness); ok {
		if l >= lv.IDSpan() || !lv.Live(l) {
			return nil
		}
	} else if l >= ix.Len() {
		return nil
	}
	return ix.Point(l)
}

// localShard is one in-process shard. A read client pins the shard's
// engine and snapshot when the read set is taken; a write client
// (localSet.writer) carries the engine current under the write lock, nil
// while the shard has never held a point, and applies writes to it
// directly.
type localShard struct {
	ls    *localSet
	shard int
	eng   *engine
	sn    *snapshot // pinned view; reads only
}

func (l localShard) Shard() int  { return l.shard }
func (l localShard) CountQuery() { l.eng.queries.Add(1) }

func (l localShard) ReverseKNNByID(ctx context.Context, local, k int) ([]int, core.Stats, error) {
	qr, err := l.sn.querier(l.eng, k)
	if err != nil {
		return nil, core.Stats{}, err
	}
	res, err := qr.ByIDCtx(ctx, local)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return res.IDs, res.Stats, nil
}

func (l localShard) ReverseKNNByPoint(ctx context.Context, q []float64, k int) ([]int, core.Stats, error) {
	qr, err := l.sn.querier(l.eng, k)
	if err != nil {
		return nil, core.Stats{}, err
	}
	res, err := qr.ByPointCtx(ctx, q)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return res.IDs, res.Stats, nil
}

func (l localShard) Points(_ context.Context, locals []int) ([][]float64, error) {
	rows := make([][]float64, len(locals))
	for i, lid := range locals {
		rows[i] = livePoint(l.sn.ix, lid)
	}
	return rows, nil
}

func (l localShard) KNNBatch(_ context.Context, probes []knnProbe) ([][]index.Neighbor, error) {
	out := make([][]index.Neighbor, len(probes))
	for i, p := range probes {
		out[i] = l.sn.ix.KNN(p.q, p.k, p.skip)
	}
	return out, nil
}

func (l localShard) Insert(ctx context.Context, p []float64) (int, bool, error) {
	ids, applied, err := l.InsertBatch(ctx, [][]float64{p})
	if !applied {
		return 0, false, err
	}
	return ids[0], true, nil
}

func (l localShard) InsertBatch(_ context.Context, pts [][]float64) ([]int, bool, error) {
	if l.eng == nil {
		eng, err := l.ls.build(l.shard, pts)
		if err != nil {
			return nil, false, err
		}
		return l.ls.publish(l.shard, eng, len(pts)), true, nil
	}
	ids, err := l.eng.insert(pts)
	return ids, err == nil, err
}

func (l localShard) Delete(_ context.Context, local int) (bool, error) {
	if l.eng == nil {
		return false, nil
	}
	return l.eng.delete(local)
}

// scatterSet is a pinned set of shard clients plus the shard map that
// translates their local IDs — everything the transport-independent
// scatter-gather needs. The front end builds one per query (or per batch)
// from its shardSet's pin.
type scatterSet struct {
	clients []shardClient
	m       *index.ShardMap
	metric  Metric
	dim     int
	// onStats, when set, receives each scatter visit's work counters after
	// a successful scatter (i indexes clients) — the per-shard telemetry
	// hook.
	onStats func(i int, st core.Stats)
}

// reverseKNN is the scatter-gather RkNN query. A nil q anchors the query
// at member qid (resolved from its home shard — qid may be any integer;
// out-of-range values fail like the unsharded engine's); a non-nil q
// queries that arbitrary point (qid is then ignored, pass -1). Returns the
// merged global IDs, the aggregated work counters, and the resolved query
// point (for workload telemetry). Errors carry no "rknnd: " prefix: the
// front end adds it, or names the batch member.
func (sc *scatterSet) reverseKNN(ctx context.Context, qid int, q []float64, k int) ([]int, Stats, []float64, error) {
	if k <= 0 {
		return nil, Stats{}, nil, fmt.Errorf("core: K must be positive, got %d", k)
	}
	if len(sc.clients) == 1 && sc.m.Shards() == 1 {
		return sc.whole(ctx, qid, q, k)
	}
	homeLocal, home := -1, -1
	if q == nil {
		s, l, ok := sc.m.Locate(qid)
		if !ok {
			return nil, Stats{}, nil, fmt.Errorf("core: query id %d out of range [0,%d)", qid, sc.m.Len())
		}
		homeLocal = l
		for i, c := range sc.clients {
			if c.Shard() == s {
				home = i
				break
			}
		}
		if home < 0 {
			// The member's shard pinned empty (or unpublished): every copy
			// of the point this read set can see is gone.
			return nil, Stats{}, nil, fmt.Errorf("core: query id %d: %w", qid, ErrDeleted)
		}
		rows, err := sc.clients[home].Points(ctx, []int{l})
		if err != nil {
			return nil, Stats{}, nil, err
		}
		if len(rows) != 1 || rows[0] == nil {
			return nil, Stats{}, nil, fmt.Errorf("core: query id %d: %w", qid, ErrDeleted)
		}
		q = rows[0]
	} else {
		if err := vecmath.ValidateFor(sc.metric, q); err != nil {
			return nil, Stats{}, nil, err
		}
		if len(q) != sc.dim {
			return nil, Stats{}, nil, fmt.Errorf("query dimension %d, index dimension %d", len(q), sc.dim)
		}
	}

	// Scatter: per-shard RkNN. The member's home shard runs a member query
	// (self-exclusion applies there); every other shard sees q as an
	// external point.
	type shardResult struct {
		globals []int // translated, ascending
		stats   core.Stats
	}
	results := make([]shardResult, len(sc.clients))
	qsp := trace.FromContext(ctx)
	err := core.Gather(ctx, len(sc.clients), func(ctx context.Context, i int) error {
		c := sc.clients[i]
		c.CountQuery()
		// One scatter span per shard; the shard's stage spans (core stages
		// in-process, remote.call hops over the network) nest beneath it.
		// Child/With are nil-safe, so the untraced path pays a single
		// pointer comparison here.
		ssp := qsp.Child("shard.scatter")
		if ssp != nil {
			ssp.SetInt("shard", int64(c.Shard()))
			ctx = trace.With(ctx, ssp)
			defer ssp.End()
		}
		var (
			locals []int
			st     core.Stats
			err    error
		)
		if i == home {
			locals, st, err = c.ReverseKNNByID(ctx, homeLocal, k)
		} else {
			locals, st, err = c.ReverseKNNByPoint(ctx, q, k)
		}
		if err != nil {
			return err
		}
		globals := make([]int, len(locals))
		for j, l := range locals {
			g, ok := sc.m.Global(c.Shard(), l)
			if !ok {
				return fmt.Errorf("shard %d returned unmapped local id %d", c.Shard(), l)
			}
			globals[j] = g
		}
		if ssp != nil {
			ssp.SetInt("results", int64(len(locals)))
		}
		results[i] = shardResult{globals: globals, stats: st}
		return nil
	})
	if err != nil {
		return nil, Stats{}, nil, err
	}
	if sc.onStats != nil {
		for i, r := range results {
			sc.onStats(i, r.stats)
		}
	}

	stats := Stats{Omega: math.Inf(1)}
	lists := make([][]int, len(results))
	for i, r := range results {
		lists[i] = r.globals
		stats.ScanDepth += r.stats.ScanDepth
		stats.FilterSize += r.stats.FilterSize
		stats.Excluded += r.stats.Excluded
		stats.LazyAccepts += r.stats.LazyAccepts
		stats.LazyRejects += r.stats.LazyRejects
		stats.Verified += r.stats.Verified
		stats.DistanceComps += r.stats.DistanceComps
		if r.stats.Omega < stats.Omega {
			stats.Omega = r.stats.Omega
		}
	}

	// One populated shard holds the entire live dataset, so its answer is
	// definitionally the global answer. Verification below is only the
	// cross-shard merge step; skipping it avoids one kNN pass per
	// candidate.
	if len(results) == 1 {
		return results[0].globals, stats, q, nil
	}
	msp := qsp.Child("shard.merge")
	candidates := core.MergeIDs(lists, nil)
	mctx := ctx
	if msp != nil {
		mctx = trace.With(ctx, msp)
	}
	ids, err := sc.verify(mctx, candidates, q, k)
	if err != nil {
		msp.End()
		return nil, Stats{}, nil, err
	}
	stats.Verified += len(candidates)
	stats.DistanceComps += int64(len(candidates))
	if msp != nil {
		msp.SetInt("candidates", int64(len(candidates)))
		msp.SetInt("results", int64(len(ids)))
		msp.End()
	}
	return ids, stats, q, nil
}

// whole answers on a one-shard set: the shard holds the entire dataset
// and its local IDs are the global IDs, so its answer — errors included —
// is the global answer, exactly as the unsharded algorithm computes it.
// The query runs inline, with no scatter goroutine, span, merge or
// re-verification.
func (sc *scatterSet) whole(ctx context.Context, qid int, q []float64, k int) ([]int, Stats, []float64, error) {
	c := sc.clients[0]
	c.CountQuery()
	var (
		ids []int
		st  core.Stats
		err error
	)
	if q == nil {
		// Out-of-range IDs fail here, as the engine would fail them: a
		// remote shard's wire cannot carry a negative ID.
		if _, _, ok := sc.m.Locate(qid); !ok {
			return nil, Stats{}, nil, fmt.Errorf("core: query id %d out of range [0,%d)", qid, sc.m.Len())
		}
		ids, st, err = c.ReverseKNNByID(ctx, qid, k)
	} else {
		ids, st, err = c.ReverseKNNByPoint(ctx, q, k)
	}
	if err != nil {
		return nil, Stats{}, nil, err
	}
	if sc.onStats != nil {
		sc.onStats(0, st)
	}
	if q == nil {
		if rows, err := c.Points(ctx, []int{qid}); err == nil && len(rows) == 1 {
			q = rows[0]
		}
	}
	return ids, fromCore(st), q, nil
}

// verify runs the refinement test d_k(x) >= d(q,x) for every candidate x
// against the union of all shards: per-shard forward kNN at x, k-way
// merged under the (distance, ID) order. The per-shard work is batched —
// one Points fetch per home shard, one KNNBatch per shard over all
// candidates — so a remote shard costs O(1) round trips per query. The
// math per candidate is exactly the sequential formulation the merge
// proof states.
func (sc *scatterSet) verify(ctx context.Context, candidates []int, q []float64, k int) ([]int, error) {
	n := len(candidates)
	ids := make([]int, 0, n)
	if n == 0 {
		return ids, nil
	}
	clientByShard := make(map[int]int, len(sc.clients))
	for i, c := range sc.clients {
		clientByShard[c.Shard()] = i
	}
	homeOf := make([]int, n) // client index of the candidate's home shard
	localOf := make([]int, n)
	for j, g := range candidates {
		s, l, ok := sc.m.Locate(g)
		if !ok {
			return nil, fmt.Errorf("candidate id %d not in shard map", g)
		}
		ci, ok := clientByShard[s]
		if !ok {
			return nil, fmt.Errorf("candidate id %d has no pinned shard", g)
		}
		homeOf[j], localOf[j] = ci, l
	}

	// Resolve every candidate's coordinates, one batched fetch per home
	// shard.
	px := make([][]float64, n)
	groups := make(map[int][]int, len(sc.clients)) // client index -> candidate positions
	for j := range candidates {
		groups[homeOf[j]] = append(groups[homeOf[j]], j)
	}
	involved := make([]int, 0, len(groups))
	for ci := range groups {
		involved = append(involved, ci)
	}
	err := core.Gather(ctx, len(involved), func(ctx context.Context, gi int) error {
		ci := involved[gi]
		pos := groups[ci]
		locals := make([]int, len(pos))
		for t, j := range pos {
			locals[t] = localOf[j]
		}
		rows, err := sc.clients[ci].Points(ctx, locals)
		if err != nil {
			return err
		}
		if len(rows) != len(pos) {
			return fmt.Errorf("shard %d returned %d points for %d ids", sc.clients[ci].Shard(), len(rows), len(pos))
		}
		for t, j := range pos {
			px[j] = rows[t]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for j := range candidates {
		if px[j] == nil {
			return nil, fmt.Errorf("candidate id %d has no pinned shard", candidates[j])
		}
	}

	// Per-shard forward-kNN probes over all candidates, self-exclusion on
	// the candidate's home shard, results translated to global IDs.
	lists := make([][][]index.Neighbor, len(sc.clients))
	err = core.Gather(ctx, len(sc.clients), func(ctx context.Context, i int) error {
		c := sc.clients[i]
		probes := make([]knnProbe, n)
		for j := range probes {
			skip := -1
			if homeOf[j] == i {
				skip = localOf[j]
			}
			probes[j] = knnProbe{q: px[j], k: k, skip: skip}
		}
		res, err := c.KNNBatch(ctx, probes)
		if err != nil {
			return err
		}
		if len(res) != n {
			return fmt.Errorf("shard %d returned %d knn lists for %d probes", c.Shard(), len(res), n)
		}
		tr := make([][]index.Neighbor, n)
		for j, nn := range res {
			tnn := make([]index.Neighbor, len(nn))
			for t, nb := range nn {
				g, ok := sc.m.Global(c.Shard(), nb.ID)
				if !ok {
					return fmt.Errorf("shard %d returned unmapped local id %d", c.Shard(), nb.ID)
				}
				tnn[t] = index.Neighbor{ID: g, Dist: nb.Dist}
			}
			tr[j] = tnn
		}
		lists[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}

	per := make([][]index.Neighbor, len(sc.clients))
	for j, g := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dqx := sc.metric.Distance(q, px[j])
		for i := range sc.clients {
			per[i] = lists[i][j]
		}
		merged := core.MergeKNN(per, k, nil)
		if len(merged) < k || merged[len(merged)-1].Dist >= dqx {
			ids = append(ids, g)
		}
	}
	return ids, nil
}

// knn is the scatter-gather forward-kNN query: per-shard top-k lists,
// k-way merged to global top-k. The caller validates q and owns the
// "core.knn" span (bound into ctx); each shard of several records a
// "shard.scatter" child.
func (sc *scatterSet) knn(ctx context.Context, q []float64, k int) ([]index.Neighbor, error) {
	if len(sc.clients) == 1 && sc.m.Shards() == 1 {
		// One shard holds the dataset: its ranking is the answer, as is.
		c := sc.clients[0]
		c.CountQuery()
		res, err := c.KNNBatch(ctx, []knnProbe{{q: q, k: k, skip: -1}})
		if err != nil {
			return nil, err
		}
		if len(res) != 1 {
			return nil, fmt.Errorf("shard %d returned %d knn lists for 1 probe", c.Shard(), len(res))
		}
		return res[0], nil
	}
	sp := trace.FromContext(ctx)
	lists := make([][]index.Neighbor, len(sc.clients))
	err := core.Gather(ctx, len(sc.clients), func(ctx context.Context, i int) error {
		c := sc.clients[i]
		c.CountQuery()
		ssp := sp.Child("shard.scatter")
		if ssp != nil {
			ssp.SetInt("shard", int64(c.Shard()))
			ctx = trace.With(ctx, ssp)
			defer ssp.End()
		}
		res, err := c.KNNBatch(ctx, []knnProbe{{q: q, k: k, skip: -1}})
		if err != nil {
			return err
		}
		if len(res) != 1 {
			return fmt.Errorf("shard %d returned %d knn lists for 1 probe", c.Shard(), len(res))
		}
		tr := make([]index.Neighbor, len(res[0]))
		for j, nb := range res[0] {
			g, ok := sc.m.Global(c.Shard(), nb.ID)
			if !ok {
				return fmt.Errorf("shard %d returned unmapped local id %d", c.Shard(), nb.ID)
			}
			tr[j] = index.Neighbor{ID: g, Dist: nb.Dist}
		}
		lists[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return core.MergeKNN(lists, k, nil), nil
}
