package repro

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/indextest"
)

// TestDurableShardedBatchPreflight disables one shard's store and checks
// that a batch touching that shard is refused before any global ID is
// assigned: Len and the shard map are unchanged, and the write path is
// not poisoned, so an insert owned by a healthy shard still succeeds.
func TestDurableShardedBatchPreflight(t *testing.T) {
	const n, S = 60, 3
	pts := indextest.RandPoints(n, 3, 81)
	ss, err := NewSharded(pts, S, WithScale(50))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurableSharded(t.TempDir(), ss, WithWALSync(0))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Disable the shard that owns the second ID of the next batch, so the
	// shard owning the first one stays healthy.
	sick := index.ShardOf(n+1, S)
	ds := d.durables[sick]
	ds.wmu.Lock()
	ds.disable(errors.New("injected log failure"))
	ds.wmu.Unlock()

	_, err = d.InsertBatch(indextest.RandPoints(S, 3, 82))
	if err == nil || !strings.Contains(err.Error(), "injected log failure") {
		t.Fatalf("batch over a disabled shard store: err = %v, want the store's failure", err)
	}
	if d.Len() != n {
		t.Errorf("Len = %d after a refused batch, want %d", d.Len(), n)
	}
	if span := d.smap.Load().Len(); span != n {
		t.Errorf("shard map holds %d ids after a refused batch, want %d", span, n)
	}
	if index.ShardOf(n, S) == sick {
		t.Fatalf("test setup: ids %d and %d hash to the same shard", n, n+1)
	}
	if id, err := d.Insert([]float64{0.3, 0.3, 0.3}); err != nil || id != n {
		t.Errorf("insert on a healthy shard after the refused batch = %d, %v; want %d, nil", id, err, n)
	}
}
