package index

import (
	"runtime"
	"testing"
)

// refShardMap is the generic per-ID mapping, one entry per assigned ID for
// any shard count: the reference the length-only one-shard map must agree
// with.
type refShardMap struct {
	shardOf, localOf []int
	globals          [][]int
}

func (r *refShardMap) assign(shards int) (g, s, l int) {
	if r.globals == nil {
		r.globals = make([][]int, shards)
	}
	g = len(r.shardOf)
	s = ShardOf(g, shards)
	l = len(r.globals[s])
	r.shardOf = append(r.shardOf, s)
	r.localOf = append(r.localOf, l)
	r.globals[s] = append(r.globals[s], g)
	return g, s, l
}

// TestShardMapMatchesReference checks Assign, Locate, Global and ShardLen
// against the reference mapping for one shard and for several, including
// the IDs and locals just outside the assigned range.
func TestShardMapMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 2, 5} {
		m, err := NewShardMap(shards)
		if err != nil {
			t.Fatal(err)
		}
		var ref refShardMap
		const n = 300
		for i := 0; i < n; i++ {
			g, s, l := m.Assign()
			rg, rs, rl := ref.assign(shards)
			if g != rg || s != rs || l != rl {
				t.Fatalf("S=%d: Assign = (%d,%d,%d), reference (%d,%d,%d)", shards, g, s, l, rg, rs, rl)
			}
		}
		for g := -2; g < n+2; g++ {
			s, l, ok := m.Locate(g)
			inRange := g >= 0 && g < n
			if ok != inRange || (ok && (s != ref.shardOf[g] || l != ref.localOf[g])) {
				t.Fatalf("S=%d: Locate(%d) = (%d,%d,%v)", shards, g, s, l, ok)
			}
		}
		for s := -1; s <= shards; s++ {
			var want []int
			if s >= 0 && s < shards {
				want = ref.globals[s]
				if m.ShardLen(s) != len(want) {
					t.Fatalf("S=%d: ShardLen(%d) = %d, want %d", shards, s, m.ShardLen(s), len(want))
				}
			}
			for l := -1; l <= len(want); l++ {
				g, ok := m.Global(s, l)
				inRange := l >= 0 && l < len(want)
				if ok != inRange || (ok && g != want[l]) {
					t.Fatalf("S=%d: Global(%d,%d) = (%d,%v)", shards, s, l, g, ok)
				}
			}
		}
		cl := m.Clone()
		cl.Assign()
		if m.Len() != n || cl.Len() != n+1 {
			t.Fatalf("S=%d: Clone not independent: Len %d and %d", shards, m.Len(), cl.Len())
		}
		rb, err := RebuildShardMap(shards, n)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < n; g++ {
			s, l, _ := rb.Locate(g)
			if s != ref.shardOf[g] || l != ref.localOf[g] {
				t.Fatalf("S=%d: rebuilt Locate(%d) = (%d,%d)", shards, g, s, l)
			}
		}
	}
}

// TestOneShardMapConstantCost pins that cloning and extending a one-shard
// map costs the same at 10 and at 100000 IDs, in allocations and in bytes:
// the unsharded write path clones it on every write.
func TestOneShardMapConstantCost(t *testing.T) {
	const runs = 200
	cost := func(n int) (allocs float64, bytes uint64) {
		m, err := RebuildShardMap(1, n)
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			cl := m.Clone()
			cl.Assign()
		}
		allocs = testing.AllocsPerRun(runs, step)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := cost(10)
	largeAllocs, largeBytes := cost(100000)
	if smallAllocs != largeAllocs || largeAllocs > 1 {
		t.Errorf("Clone+Assign allocations: %v at n=10, %v at n=100000; want equal and at most 1", smallAllocs, largeAllocs)
	}
	// A few bytes of slack absorb runtime bookkeeping allocated meanwhile.
	if largeBytes > smallBytes+64 {
		t.Errorf("Clone+Assign bytes per op: %d at n=10, %d at n=100000; want equal", smallBytes, largeBytes)
	}
}
