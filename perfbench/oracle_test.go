package main

import (
	"errors"
	"slices"
	"testing"
)

func TestQualityScoring(t *testing.T) {
	var q quality
	q.add([]int{1, 2, 3}, []int{1, 2, 3}, 0) // exact
	q.add([]int{1, 5}, []int{1, 4}, 1)       // one miss, one lazily accepted false hit
	q.add(nil, nil, 0)                       // empty answer, empty truth
	if q.queries != 3 || q.truth != 5 || q.got != 5 || q.correct != 4 || q.falseHits != 1 {
		t.Fatalf("quality %+v", q)
	}
	if q.recall() != 0.8 || q.precision() != 0.8 {
		t.Errorf("recall %v precision %v, want 0.8 and 0.8", q.recall(), q.precision())
	}
	if q.unexplained != 0 {
		t.Errorf("a false hit within the lazy accepts counted as unexplained: %+v", q)
	}
	q.add([]int{2, 6, 7}, []int{2}, 1) // two false hits, one lazy accept
	if q.unexplained != 1 {
		t.Errorf("two false hits against one lazy accept: unexplained %d, want 1", q.unexplained)
	}
	var empty quality
	if empty.recall() != 1 || empty.precision() != 1 {
		t.Error("an empty sample should score 1")
	}
}

func TestExactRkNNOnHandBuiltData(t *testing.T) {
	// Points on a line at 0, 1, 3, 7 and 20 under the IDs a server gave
	// them; 11 and 15 were inserted, 12 deleted. With k=1, x is a reverse
	// nearest neighbor of q when no other point is strictly closer to x
	// than q is.
	d := liveData{
		ids:    []int{0, 1, 2, 11, 15},
		points: [][]float64{{0}, {1}, {3}, {7}, {20}},
	}
	got, err := exactRkNN(d, [][]float64{{2}, {14}, {0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// q=2: 1 (nn dist 1, q at 1, tie accepted) and 3 (nn dist 2, q at 1).
	// q=14: 7 (nn dist 4, q at 7: no) and 20 (nn dist 13, q at 6: yes).
	// q=0 coincides with the point at 0, which has q at distance 0.
	want := [][]int{{1, 2}, {15}, {0, 1}}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("query %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLiveSetTracksWrites(t *testing.T) {
	l := newLiveSet(3)
	if err := l.inserted(3, []float64{9}); err != nil {
		t.Fatal(err)
	}
	if err := l.inserted(4, []float64{8}); err != nil {
		t.Fatal(err)
	}
	var fe fatalError
	if err := l.inserted(4, []float64{7}); !errors.As(err, &fe) {
		t.Errorf("duplicate insert id: err %v, want fatal", err)
	}
	if err := l.inserted(1, []float64{7}); !errors.As(err, &fe) {
		t.Errorf("insert id inside the base data: err %v, want fatal", err)
	}
	id, ok := l.takeVictim()
	if !ok || id != 3 {
		t.Fatalf("victim %d %v, want the oldest insert 3", id, ok)
	}
	l.deleted(id)
	d := l.data([][]float64{{0}, {1}, {2}})
	if !slices.Equal(d.ids, []int{0, 1, 2, 4}) || d.points[3][0] != 8 {
		t.Errorf("live data %v %v", d.ids, d.points)
	}
}
