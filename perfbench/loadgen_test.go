package main

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func testTraffic(m mix, seed uint64) *traffic {
	pts := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	return &traffic{mix: m, k: 2, rng: rand.New(rand.NewPCG(seed, 1)), queries: pts, fresh: pts, conns: 2}
}

func TestScheduleIsEvenAndSeeded(t *testing.T) {
	m := mix{opRkNN: 0.9, opInsert: 0.05, opDelete: 0.05}
	ops := testTraffic(m, 7).schedule(200, 5*time.Second)
	if len(ops) != 1000 {
		t.Fatalf("%d ops, want 1000", len(ops))
	}
	for i, o := range ops {
		if want := time.Duration(i) * 5 * time.Millisecond; o.due != want {
			t.Fatalf("op %d due %v, want %v", i, o.due, want)
		}
	}
	again := testTraffic(m, 7).schedule(200, 5*time.Second)
	for i := range ops {
		if ops[i].kind != again[i].kind || string(ops[i].body) != string(again[i].body) {
			t.Fatalf("op %d differs between two schedules from one seed", i)
		}
	}
	var n [numKinds]int
	inserts, deletes := 0, 0
	for i, o := range ops {
		n[o.kind]++
		switch o.kind {
		case opInsert:
			inserts++
		case opDelete:
			deletes++
			if inserts < deletes-1+2 {
				t.Fatalf("delete at op %d lacks the connection margin: %d inserts, %d deletes", i, inserts, deletes)
			}
		}
	}
	if n[opRkNN] < 850 || n[opInsert] < 30 || n[opDelete] < 30 {
		t.Errorf("mix %v far from 90/5/5", n)
	}
}

func TestRunPhaseTimesFromTheDueTime(t *testing.T) {
	// One connection; the first op stalls 30 ms. The ops queued behind it
	// are charged the stall as connection wait and latency, while the
	// generator itself stays on time.
	ops := make([]op, 5)
	for i := range ops {
		ops[i] = op{kind: opRkNN, due: time.Duration(i) * time.Millisecond}
	}
	do := func(_ context.Context, o *op) error {
		if o.due == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	}
	p, err := runPhase(context.Background(), ops, 5*time.Millisecond, 1, time.Second, do)
	if err != nil {
		t.Fatal(err)
	}
	if p.out[0].latency < 30*time.Millisecond {
		t.Errorf("stalled op latency %v, want >= 30ms", p.out[0].latency)
	}
	for i := 1; i < len(ops); i++ {
		o := p.out[i]
		want := 30*time.Millisecond - ops[i].due
		if o.wait < want || o.latency < want {
			t.Errorf("op %d: wait %v latency %v, want both >= %v", i, o.wait, o.latency, want)
		}
		if o.lag > 20*time.Millisecond {
			t.Errorf("op %d: generator lag %v although release never blocks", i, o.lag)
		}
	}
	if p.backlog < 1 {
		t.Errorf("backlog %d, want the ops still queued behind the stall", p.backlog)
	}
	if c := p.counts(); c.ok[opRkNN] != 5 || p.failed() != 0 {
		t.Errorf("counts %+v failed %d, want 5 ok", c, p.failed())
	}
}

func TestRunPhaseCountsUnsentAndFailed(t *testing.T) {
	ops := make([]op, 4)
	boom := errors.New("HTTP 500")
	do := func(_ context.Context, o *op) error {
		time.Sleep(20 * time.Millisecond)
		if o.due == time.Millisecond {
			return boom
		}
		return nil
	}
	for i := range ops {
		ops[i] = op{kind: opKNN, due: time.Duration(i) * time.Millisecond}
	}
	// No grace: ops still queued when the schedule ends are never sent.
	p, err := runPhase(context.Background(), ops, 4*time.Millisecond, 1, 0, do)
	if err != nil {
		t.Fatal(err)
	}
	c := p.counts()
	if c.sent[opKNN] != 1 || c.failed[opKNN] != 3 || !errors.Is(p.out[3].err, errNotSent) {
		t.Errorf("sent %d failed %d last err %v; want 1 sent, 3 failed, unsent last", c.sent[opKNN], c.failed[opKNN], p.out[3].err)
	}
	if p.attempted() != 4 || p.failed() != 3 {
		t.Errorf("attempted %d failed %d, want 4 and 3", p.attempted(), p.failed())
	}
}

func TestRunPhaseStopsOnFatal(t *testing.T) {
	ops := make([]op, 50)
	for i := range ops {
		ops[i] = op{kind: opRkNN, due: time.Duration(i) * time.Millisecond}
	}
	do := func(_ context.Context, o *op) error {
		if o.due == 2*time.Millisecond {
			return fatalError{errors.New("malformed")}
		}
		return nil
	}
	_, err := runPhase(context.Background(), ops, 50*time.Millisecond, 2, time.Second, do)
	var fe fatalError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want the fatal error", err)
	}
}

// fakeServer answers /v1/rknn one request at a time in service, so its
// capacity is 1/service requests per second whatever the connection count.
func fakeServer(service time.Duration) *httptest.Server {
	var mu sync.Mutex
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(service)
		mu.Unlock()
		w.Write([]byte(`{"ids":[1,2]}`))
	}))
}

func TestLadderAgainstFakeServerWithKnownCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ladder for about three seconds")
	}
	srv := fakeServer(5 * time.Millisecond) // 200 requests/s
	defer srv.Close()
	tr := testTraffic(mix{opRkNN: 1}, 3)
	c := newClient(srv.URL, 2, nil, 2)
	defer c.close()
	limit := 50 * time.Millisecond
	best, ok, ran, err := climb([]float64{50, 100, 150, 300, 400}, p95, limit, func(rate float64) (rung, error) {
		p, err := runPhase(context.Background(), tr.schedule(rate, 700*time.Millisecond), 700*time.Millisecond, 2, 5*time.Second, c.do)
		if err != nil {
			return rung{}, err
		}
		return rungOf(p, limit), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || best.rate != 150 {
		t.Fatalf("highest rung holding %v = %+v (ok %v), want 150 below the 200/s capacity; ran %+v", limit, best, ok, ran)
	}
	if last := ran[len(ran)-1]; last.rate != 300 || last.holds(p95, limit) {
		t.Errorf("ladder ended at %+v, want the failing 300 rung", last)
	}
	if best.achieved < 140 || best.achieved > 155 {
		t.Errorf("achieved %.1f/s at the 150 rung", best.achieved)
	}
}
