package repro

import (
	"testing"

	"repro/internal/index"
)

// TestCompactionDiscardsStaleOverlay replays the interleaving in which a
// writer loads the overlay to fold, another compaction finishes, and only
// then the writer's fold runs: the stale fold must not be rebased onto the
// current overlay, whose rows do not extend its rows, or the rows written
// since the other compaction vanish and their IDs are handed out again.
func TestCompactionDiscardsStaleOverlay(t *testing.T) {
	pts := make([][]float64, 40)
	for i := range pts {
		pts[i] = []float64{float64(i%7) / 7, float64(i%5) / 5}
	}
	s, err := New(pts, WithScale(4), WithCompactionThreshold(1000))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Insert([]float64{float64(i%11) / 11, float64(i%13) / 13}); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(3)
	stale := s.snap.Load().ix.(*index.Overlay) // the writer's load
	s.compactNow()                             // another compaction finishes
	insert(5)
	want := len(pts) + 8
	s.fold.Lock()
	s.compact(stale) // the writer's late fold
	if got := s.IDSpan(); got != want {
		t.Fatalf("IDSpan = %d after a stale fold, want %d", got, want)
	}
	if got := s.Len(); got != want {
		t.Fatalf("Len = %d after a stale fold, want %d", got, want)
	}
	if id, err := s.Insert([]float64{0.5, 0.5}); err != nil || id != want {
		t.Fatalf("next insert = %d, %v; want %d", id, err, want)
	}
}
