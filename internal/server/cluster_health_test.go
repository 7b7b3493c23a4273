package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
	"repro/internal/index"
	"repro/internal/indextest"
)

// healthHoldTransport holds the first /healthz reply of one host until the
// test releases it, parks every later probe of that host until resume, and
// counts the reads (binary RPCs) another host serves.
type healthHoldTransport struct {
	held, counted string

	mu       sync.Mutex
	probes   int
	answered chan struct{} // closed once the daemon answered the held probe
	release  chan struct{} // the held reply is returned after this closes
	second   chan struct{} // closed when the next probe round reaches held
	resume   chan struct{} // later probes of held proceed after this closes
	reads    atomic.Int64
}

func (h *healthHoldTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == h.counted && req.URL.Path == "/v1/binary" {
		h.reads.Add(1)
	}
	if req.URL.Host != h.held || req.URL.Path != "/healthz" {
		return http.DefaultTransport.RoundTrip(req)
	}
	h.mu.Lock()
	h.probes++
	n := h.probes
	h.mu.Unlock()
	if n > 1 {
		if n == 2 {
			close(h.second)
		}
		<-h.resume
		return http.DefaultTransport.RoundTrip(req)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	close(h.answered)
	<-h.release
	return resp, err
}

// TestCoordinatorHealthProbeRacingWrite holds a primary's /healthz reply
// (taken before a write) until a coordinator insert on that shard has
// returned. The health round must not store what the stale probe saw:
// Len keeps the insert, and the shard's lagging read replica stays out of
// the read rotation until it has the point too.
func TestCoordinatorHealthProbeRacingWrite(t *testing.T) {
	const S = 2
	pts := indextest.RandPoints(80, 3, 91)
	n := len(pts)
	target := index.ShardOf(n, S) // the shard the next insert lands on
	parts := splitShards(t, pts, S)

	specs := make([]repro.ShardSpec, S)
	var primary, replica string
	var replicaEng *repro.Searcher
	for s := 0; s < S; s++ {
		copies := 1
		if s == target {
			copies = 2 // primary plus a read replica with its own engine
		}
		for c := 0; c < copies; c++ {
			eng, err := repro.New(parts[s], repro.WithScale(100))
			if err != nil {
				t.Fatal(err)
			}
			ds := httptest.NewServer(New(eng, WithShardRole(s, S)).Handler())
			t.Cleanup(ds.Close)
			specs[s].Addrs = append(specs[s].Addrs, ds.URL)
			if s == target && c == 0 {
				primary = strings.TrimPrefix(ds.URL, "http://")
			}
			if s == target && c == 1 {
				replica, replicaEng = strings.TrimPrefix(ds.URL, "http://"), eng
			}
		}
	}
	h := &healthHoldTransport{
		held: primary, counted: replica,
		answered: make(chan struct{}), release: make(chan struct{}),
		second: make(chan struct{}), resume: make(chan struct{}),
	}
	co, err := repro.NewCoordinator(context.Background(), specs,
		repro.WithHealthInterval(10*time.Millisecond), repro.WithRequestTimeout(time.Minute),
		repro.WithTransport(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	var resumeOnce sync.Once
	resume := func() { resumeOnce.Do(func() { close(h.resume) }) }
	t.Cleanup(resume) // runs before co.Close: the loop must not stay parked

	wait := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	ctx := context.Background()
	reads := func() int64 {
		t.Helper()
		before := h.reads.Load()
		for q := 0; q < 6; q++ {
			if _, err := co.ReverseKNNContext(ctx, q, 5); err != nil {
				t.Fatal(err)
			}
		}
		return h.reads.Load() - before
	}

	wait(h.answered, "the first health probe")
	p := []float64{0.4, 0.6, 0.5}
	if id, err := co.InsertContext(ctx, p); err != nil || id != n {
		t.Fatalf("insert = %d, %v; want %d", id, err, n)
	}
	close(h.release)
	wait(h.second, "the next health round") // the held round has finished

	if got := co.Len(); got != n+1 {
		t.Errorf("Len = %d after a health round that raced the insert, want %d", got, n+1)
	}
	if got := reads(); got != 0 {
		t.Errorf("lagging replica served %d reads after the insert, want 0", got)
	}

	// Once the replica holds the point too, the health loop re-admits it.
	if _, err := replicaEng.Insert(p); err != nil {
		t.Fatal(err)
	}
	resume()
	deadline := time.Now().Add(10 * time.Second)
	for reads() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("caught-up replica never re-entered the read rotation")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := co.Len(); got != n+1 {
		t.Errorf("Len = %d after the replica caught up, want %d", got, n+1)
	}
}
