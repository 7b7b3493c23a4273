package repro

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/vecmath"
)

// This file is the durable face of the sharded engine. A sharded store is
// a directory holding one persist.Store per populated shard plus a
// manifest naming the shard count:
//
//	dir/
//	  MANIFEST      "rknn-sharded-store v1" + the shard count
//	  shard-0/      persist.Store of shard 0 (snap-*.rknn, wal-*.log)
//	  shard-1/      ...
//
// Shards that never received a point have no directory. Nothing else needs
// persisting: the global<->(shard,local) mapping is a pure function of the
// global ID count and the shard count (index.RebuildShardMap), and the
// global count is the sum of the per-shard ID spans. Recovery therefore
// opens each shard store independently — snapshot, WAL replay, torn-tail
// discard, exactly as a single store recovers — rebuilds the map, and
// cross-checks that every shard's ID span matches the count the map
// assigns it, so a lost or truncated shard store fails loudly instead of
// silently renumbering the survivors. The manifest is written last during
// bootstrap, as the commit record: a crash mid-bootstrap leaves no
// manifest and the directory is not a sharded store.

const shardManifestName = "MANIFEST"
const shardManifestMagic = "rknn-sharded-store v1"

func shardDirName(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", shard))
}

// ShardedStoreExists reports whether dir contains a sharded store manifest
// that OpenSharded could try to recover.
func ShardedStoreExists(dir string) bool {
	_, err := readShardManifest(dir)
	return err == nil
}

func readShardManifest(dir string) (int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, shardManifestName))
	if err != nil {
		return 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || strings.TrimSpace(lines[0]) != shardManifestMagic {
		return 0, fmt.Errorf("rknnd: %s is not a sharded store manifest", dir)
	}
	fields := strings.Fields(lines[1])
	if len(fields) != 2 || fields[0] != "shards" {
		return 0, fmt.Errorf("rknnd: malformed sharded store manifest in %s", dir)
	}
	shards, err := strconv.Atoi(fields[1])
	if err != nil || shards <= 0 {
		return 0, fmt.Errorf("rknnd: malformed shard count in %s manifest", dir)
	}
	return shards, nil
}

// writeShardManifest commits the manifest via temp-file + rename + dir
// fsync, the same crash discipline as the snapshot files.
func writeShardManifest(dir string, shards int) error {
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	content := fmt.Sprintf("%s\nshards %d\n", shardManifestMagic, shards)
	if _, err := tmp.WriteString(content); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, shardManifestName)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// DurableShardedSearcher is a ShardedSearcher whose shards each live in
// their own on-disk store: every Insert and Delete is write-ahead logged in
// the owning shard's log before being acknowledged, and Snapshot cuts a
// new generation in every shard store. Queries are served exactly as by
// the embedded ShardedSearcher. Writes go through the embedded engine's
// front end, whose set is the stores' (durableSet), so they are logged
// whichever of the two receives them.
//
// Relaxed sync caveat: with WithWALSync(0) or n > 1, an OS crash (not a
// process crash — unsynced appends still reach the OS immediately) can
// lose unsynced log tails unevenly across shards. Recovery detects the
// skewed ID spans and refuses to open rather than silently renumbering
// survivors, so a sharded store under a relaxed policy trades its loss
// window for a manual restore-from-backup path. The default every-write
// sync can only lose the single torn final record — always the globally
// last write — which recovery discards consistently.
type DurableShardedSearcher struct {
	*ShardedSearcher
	*durableSet
}

// NewDurableSharded binds an existing ShardedSearcher to a fresh sharded
// store in dir: one per-shard store with an initial snapshot for every
// populated shard, then the manifest as the commit record. It refuses to
// overwrite an existing store of either kind.
func NewDurableSharded(dir string, ss *ShardedSearcher, opts ...StoreOption) (*DurableShardedSearcher, error) {
	if ss == nil {
		return nil, errors.New("rknnd: nil sharded searcher")
	}
	if ShardedStoreExists(dir) {
		return nil, fmt.Errorf("rknnd: %s already holds a sharded store", dir)
	}
	if StoreExists(dir) {
		return nil, fmt.Errorf("rknnd: %s already holds a single-engine store", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rknnd: create sharded store in %s: %w", dir, err)
	}
	ds := newDurableSet(ss.frontEnd, ss.localSet, dir, opts)
	for i := range ss.slots {
		eng := ss.slots[i].Load()
		if eng == nil {
			continue
		}
		de, err := createEngine(shardDirName(dir, i), eng, opts)
		if err != nil {
			closeStores(ds.durables)
			return nil, fmt.Errorf("rknnd: shard %d: %w", i, err)
		}
		ds.durables[i], ds.recovery[i] = de, RecoveryInfo{Generation: 1}
	}
	if err := writeShardManifest(dir, ss.Shards()); err != nil {
		closeStores(ds.durables)
		return nil, fmt.Errorf("rknnd: commit sharded store manifest: %w", err)
	}
	ss.set = ds
	return &DurableShardedSearcher{ShardedSearcher: ss, durableSet: ds}, nil
}

// OpenSharded recovers a DurableShardedSearcher from the sharded store in
// dir: every shard store is recovered independently (newest intact
// snapshot, WAL replay with ID verification, torn final record
// discarded), the global ID mapping is rebuilt from the per-shard ID
// spans, and the engine configuration is cross-checked across shards.
// Nothing is re-estimated.
func OpenSharded(dir string, opts ...StoreOption) (*DurableShardedSearcher, error) {
	shards, err := readShardManifest(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("rknnd: open sharded %s: %w", dir, ErrNoStore)
		}
		return nil, err
	}
	durables := make([]*durableEngine, shards)
	recovery := make([]RecoveryInfo, shards)
	spans := make([]int, shards)
	total := 0
	var proto *engine
	for i := 0; i < shards; i++ {
		sd := shardDirName(dir, i)
		if !persist.Exists(sd) {
			continue
		}
		de, info, err := openEngine(sd, opts)
		if err != nil {
			closeStores(durables)
			return nil, fmt.Errorf("rknnd: open sharded %s: shard %d: %w", dir, i, err)
		}
		durables[i], recovery[i] = de, info
		spans[i] = de.eng.IDSpan()
		total += spans[i]
		if proto == nil {
			proto = de.eng
		} else if err := sameEngineConfig(proto, de.eng); err != nil {
			closeStores(durables)
			return nil, fmt.Errorf("rknnd: open sharded %s: shard %d: %w", dir, i, err)
		}
	}
	if proto == nil {
		closeStores(durables)
		return nil, fmt.Errorf("rknnd: open sharded %s: no shard holds a readable snapshot: %w", dir, ErrNoStore)
	}
	m, err := index.RebuildShardMap(shards, total)
	if err != nil {
		closeStores(durables)
		return nil, fmt.Errorf("rknnd: open sharded %s: %w", dir, err)
	}
	for i := 0; i < shards; i++ {
		if m.ShardLen(i) != spans[i] {
			closeStores(durables)
			return nil, fmt.Errorf("rknnd: open sharded %s: shard %d holds %d ids, the global mapping over %d ids expects %d — the store is inconsistent (a shard store was lost or truncated, or an OS crash under a relaxed -wal-sync policy lost log tails unevenly across shards; restore the affected shard from backup)",
				dir, i, spans[i], total, m.ShardLen(i))
		}
	}

	ix := proto.snap.Load().ix
	ls := &localSet{engineConfig: proto.engineConfig, metric: ix.Metric(), slots: make([]atomic.Pointer[engine], shards)}
	dynamic := false
	for i, de := range durables {
		if de != nil {
			if !dynamic {
				_, dynamic = de.eng.snap.Load().ix.(index.Cloner)
			}
			ls.slots[i].Store(de.eng)
		}
	}
	ss := &ShardedSearcher{inProcess: inProcess{newFrontEnd(ls, ix.Dim(), true, dynamic, m)}, localSet: ls}
	ds := &durableSet{fe: ss.frontEnd, loc: ls, dir: dir, walOpts: opts, durables: durables, recovery: recovery}
	ss.set = ds
	return &DurableShardedSearcher{ShardedSearcher: ss, durableSet: ds}, nil
}

// sameEngineConfig verifies that two recovered shard engines carry the
// same engine configuration; shards of one store must be interchangeable.
func sameEngineConfig(a, b *engine) error {
	if a.scale != b.scale || a.plus != b.plus || a.adaptive != b.adaptive || a.margin != b.margin || a.backend != b.backend {
		return fmt.Errorf("shard engine configuration mismatch (scale %v/%v, backend %s/%s)", a.scale, b.scale, a.backend, b.backend)
	}
	ax, bx := a.snap.Load().ix, b.snap.Load().ix
	if ax.Dim() != bx.Dim() {
		return fmt.Errorf("shard dimension mismatch: %d vs %d", ax.Dim(), bx.Dim())
	}
	// Distances computed under different metrics must never be merged: a
	// shard restored from the wrong store would silently corrupt every
	// query, so compare the persisted metric identities too.
	aID, aParam, errA := vecmath.IdentifyMetric(ax.Metric())
	bID, bParam, errB := vecmath.IdentifyMetric(bx.Metric())
	if errA != nil || errB != nil || aID != bID || aParam != bParam {
		return fmt.Errorf("shard metric mismatch (%d(%v) vs %d(%v))", aID, aParam, bID, bParam)
	}
	return nil
}

// Recovery returns what OpenSharded found on disk, indexed by shard
// (zero-valued entries for shards with no store).
func (d *DurableShardedSearcher) Recovery() []RecoveryInfo {
	out := make([]RecoveryInfo, len(d.recovery))
	copy(out, d.recovery)
	return out
}

// Generations returns the per-shard store generations (0 for shards with
// no store).
func (d *DurableShardedSearcher) Generations() []uint64 {
	out := make([]uint64, len(d.durables))
	for i, de := range d.durables {
		if de != nil {
			out[i] = de.gen.Load()
		}
	}
	return out
}

// durableSet is the shardSet over in-process engines bound to their
// stores: the one store of a DurableSearcher, or the per-shard stores of a
// DurableShardedSearcher. Reads pin the engines as localSet does; writes
// go through each shard's durableEngine, which logs them before
// acknowledging.
type durableSet struct {
	fe  *frontEnd
	loc *localSet

	dir      string // sharded store root, where new shards get their stores
	walOpts  []StoreOption
	durables []*durableEngine // indexed by shard; nil until first point
	recovery []RecoveryInfo   // indexed by shard; zero-valued when absent
	closed   bool             // guarded by fe.mu
}

// newDurableSet returns a durable set over the engines of ls, none of them
// bound to a store yet.
func newDurableSet(fe *frontEnd, ls *localSet, dir string, opts []StoreOption) *durableSet {
	return &durableSet{fe: fe, loc: ls, dir: dir, walOpts: opts,
		durables: make([]*durableEngine, len(ls.slots)), recovery: make([]RecoveryInfo, len(ls.slots))}
}

// closeStores closes the opened stores of a construction that failed.
func closeStores(durables []*durableEngine) {
	for _, de := range durables {
		if de != nil {
			de.close()
		}
	}
}

// pin implements shardSet: reads are the in-process engines'.
func (d *durableSet) pin() []shardClient { return d.loc.pin() }

// writer implements shardSet: the shard's writes go through its store,
// which must still accept them — a closed or disabled store refuses the
// write before any global ID is assigned, so it tears nothing.
func (d *durableSet) writer(s int) (shardClient, error) {
	if d.closed {
		return nil, errClosed
	}
	if de := d.durables[s]; de != nil {
		de.wmu.Lock()
		err := de.usable()
		de.wmu.Unlock()
		if err != nil {
			return nil, d.fe.shardErr("shard", s, err)
		}
	}
	return durableShard{localShard: localShard{ls: d.loc, shard: s}, d: d}, nil
}

// Generation returns the current snapshot generation of the store — on a
// sharded store the lowest across the populated shard stores ("every
// shard is durable at least to generation g"; Generations has the
// per-shard detail). It is lock-free, so monitoring endpoints never wait
// behind a snapshot cut.
func (d *durableSet) Generation() uint64 {
	var min uint64
	for _, de := range d.durables {
		if de == nil {
			continue
		}
		if g := de.gen.Load(); min == 0 || g < min {
			min = g
		}
	}
	return min
}

// Snapshot cuts a new snapshot generation reflecting all acknowledged
// writes in every populated store — each written to a temporary file and
// renamed into place, so a crash mid-cut preserves the previous
// generation — then truncates the logs. It holds the write lock, so the
// cuts reflect one consistent prefix of the acknowledged writes; queries
// are never blocked.
func (d *durableSet) Snapshot() error {
	d.fe.mu.Lock()
	defer d.fe.mu.Unlock()
	if d.closed {
		return errClosed
	}
	for i, de := range d.durables {
		if de == nil {
			continue
		}
		if err := de.snapshot(); err != nil {
			return d.fe.shardErr("shard", i, err)
		}
	}
	return nil
}

// Close syncs and closes every log. Further mutations fail; queries keep
// working against the in-memory state.
func (d *durableSet) Close() error {
	d.fe.mu.Lock()
	defer d.fe.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	for _, de := range d.durables {
		if de == nil {
			continue
		}
		if err := de.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// durableShard is the write client of one shard of a durableSet: every
// write runs through the shard's durableEngine, which logs it before
// acknowledging. A log failure disables that shard's store, but the write
// was applied in memory, so the ID assignment stands.
type durableShard struct {
	localShard
	d *durableSet
}

func (w durableShard) Insert(ctx context.Context, p []float64) (int, bool, error) {
	de := w.d.durables[w.shard]
	if de == nil {
		_, err := w.create([][]float64{p})
		return 0, err == nil, err
	}
	return de.insert(ctx, p)
}

// InsertBatch logs one shard's group of a batch as a single WAL append (at
// most one fsync). A process crash between the appends of different
// shards' groups can tear a multi-shard batch across logs; recovery then
// refuses to open (the ID-span cross-check) rather than renumber survivors.
func (w durableShard) InsertBatch(ctx context.Context, pts [][]float64) ([]int, bool, error) {
	de := w.d.durables[w.shard]
	if de == nil {
		ids, err := w.create(pts)
		return ids, err == nil, err
	}
	return de.insertBatch(ctx, pts)
}

func (w durableShard) Delete(ctx context.Context, local int) (bool, error) {
	de := w.d.durables[w.shard]
	if de == nil {
		return false, nil
	}
	return de.delete(ctx, local)
}

// create populates a previously empty shard: a fresh engine and a fresh
// shard store whose initial snapshot carries the points (no WAL records
// needed).
func (w durableShard) create(pts [][]float64) ([]int, error) {
	// The new store's snapshot is fully fsynced the moment it exists.
	// Under a relaxed sync policy the sibling shards may still hold
	// unsynced WAL tails for earlier acknowledged writes; an OS crash
	// then would persist these (later) points while losing those
	// (earlier) ones, skewing the per-shard ID spans the recovery
	// cross-check relies on. Syncing every sibling log first keeps the
	// durable state a prefix of the acknowledged writes. (The front end's
	// write lock is held, so no append races these syncs.)
	for i, de := range w.d.durables {
		if de == nil || de.store == nil {
			continue
		}
		if err := de.store.Sync(); err != nil {
			return nil, fmt.Errorf("rknnd: shard %d: syncing log before creating shard %d: %w", i, w.shard, err)
		}
	}
	eng, err := w.ls.build(w.shard, pts)
	if err != nil {
		return nil, err
	}
	de, err := createEngine(shardDirName(w.d.dir, w.shard), eng, w.d.walOpts)
	if err != nil {
		return nil, fmt.Errorf("rknnd: shard %d: %w", w.shard, err)
	}
	w.d.durables[w.shard], w.d.recovery[w.shard] = de, RecoveryInfo{Generation: 1}
	return w.ls.publish(w.shard, eng, len(pts)), nil
}
