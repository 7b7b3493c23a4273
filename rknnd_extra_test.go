package repro

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

func TestAdaptiveFacade(t *testing.T) {
	pts := dataset.Sequoia(800, 6).Points
	s, err := New(pts, WithAdaptiveScale(), WithScaleMargin(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Scale() != 0 {
		t.Errorf("adaptive Scale() = %g, want 0 sentinel", s.Scale())
	}
	truth, err := bruteforce.New(pts, vecmath.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	var recallSum float64
	const queries = 15
	for qid := 0; qid < queries; qid++ {
		got, err := s.ReverseKNN(qid, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, err := truth.RkNNByID(qid, 10)
		if err != nil {
			t.Fatal(err)
		}
		recallSum += bruteforce.Recall(got, want)
	}
	if mean := recallSum / queries; mean < 0.9 {
		t.Errorf("adaptive facade mean recall %.3f, want >= 0.9", mean)
	}
	if _, err := New(pts, WithAdaptiveScale(), WithScaleMargin(-1)); err == nil {
		t.Error("accepted negative margin with adaptive scale")
	}
}

func TestBatchFacade(t *testing.T) {
	pts := dataset.FCT(600, 7).Points
	s, err := New(pts, WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	qids := []int{0, 11, 42, 99, 123}
	batch, err := s.BatchReverseKNN(qids, 10, 3)
	if err != nil {
		t.Fatalf("BatchReverseKNN: %v", err)
	}
	if len(batch) != len(qids) {
		t.Fatalf("batch returned %d entries", len(batch))
	}
	for i, qid := range qids {
		seq, err := s.ReverseKNN(qid, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], seq) {
			t.Errorf("qid %d: batch %v, sequential %v", qid, batch[i], seq)
		}
	}
	if _, err := s.BatchReverseKNN([]int{-5}, 10, 2); err == nil {
		t.Error("batch accepted invalid query id")
	}
	if _, err := s.BatchReverseKNN(qids, 10, -1); err == nil {
		t.Error("batch accepted negative workers")
	}
}

// TestConcurrentSearcherUse drives many goroutines through one Searcher to
// back the concurrency-safety claim (run with -race in CI).
func TestConcurrentSearcherUse(t *testing.T) {
	pts := dataset.Sequoia(700, 9).Points
	s, err := New(pts, WithScale(6))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := s.ReverseKNN((g*37+i)%700, 5); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSampleLiveIDsDistinct pins the recall sampler against tombstone
// runs: probing past deleted IDs must never revisit an already-sampled ID,
// so no query is double-weighted in the estimate.
func TestSampleLiveIDsDistinct(t *testing.T) {
	pts := testPoints(30, 2, 41)
	s, err := New(pts, WithBackend(BackendScan), WithScale(8))
	if err != nil {
		t.Fatal(err)
	}
	// Tombstone a run spanning several sample strides (span 30, 8 samples
	// → stride 3): without dedup, IDs 0 and 3 would both probe to 6.
	for id := 0; id < 6; id++ {
		if ok, err := s.Delete(id); !ok || err != nil {
			t.Fatalf("Delete(%d) = (%v, %v)", id, ok, err)
		}
	}
	ids := sampleLiveIDs(s.snap.Load().ix, 8)
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("sample %v repeats id %d", ids, id)
		}
		if id < 6 {
			t.Fatalf("sample %v includes tombstoned id %d", ids, id)
		}
		seen[id] = true
	}
	if len(ids) != 8 {
		t.Errorf("sampled %d ids, want 8 (24 live ids available)", len(ids))
	}
}

// TestCompactNowWaitsOutInFlightFold holds the fold lock the way a
// background compaction does, for far longer than any bounded number of
// yields, and checks that compactNow neither returns early nor leaves the
// delta overlay dirty: it waits for the in-flight fold, then folds.
func TestCompactNowWaitsOutInFlightFold(t *testing.T) {
	s, err := New(dataset.Sequoia(300, 3).Points, WithScale(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert([]float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if s.MemtableLen() == 0 {
		t.Fatal("insert left no delta to fold")
	}

	s.fold.Lock() // a background fold is in flight
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.compactNow()
	}()
	select {
	case <-done:
		t.Fatal("compactNow returned while a fold was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	s.fold.Unlock() // the in-flight fold finishes
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("compactNow never returned after the in-flight fold finished")
	}
	if n := s.MemtableLen(); n != 0 {
		t.Errorf("compactNow left %d memtable rows", n)
	}
	if s.Compactions() != 1 {
		t.Errorf("compactions = %d, want 1", s.Compactions())
	}
}
