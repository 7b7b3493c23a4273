package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// mix is a traffic mix: each op kind's share of the ops, summing to 1.
type mix [numKinds]float64

// traffic draws a workload's op stream from its seed. Query points are
// dataset members sent as points; inserts take fresh points in turn; a
// delete is drawn only when enough inserts precede it that one of them has
// surely completed when the delete is sent (see next).
type traffic struct {
	mix     mix
	k       int
	rng     *rand.Rand
	queries [][]float64
	fresh   [][]float64
	conns   int

	nextFresh        int
	inserts, deletes int
}

// schedule returns rate·span ops at evenly spaced due times. Arrivals are
// evenly spaced rather than Poisson so run-to-run spread comes from the
// system, not the schedule; the seed fixes the op sequence.
func (t *traffic) schedule(rate float64, span time.Duration) []op {
	n := int(rate * span.Seconds())
	ops := make([]op, n)
	step := float64(span) / float64(n)
	for i := range ops {
		ops[i] = t.next()
		ops[i].due = time.Duration(float64(i) * step)
	}
	return ops
}

// next draws one op. A delete needs conns more inserts than deletes before
// it: at most conns-1 other ops are in flight when it is dequeued, so at
// least one earlier insert has completed and is still undeleted. Without
// that margin the draw becomes an insert.
func (t *traffic) next() op {
	u := t.rng.Float64()
	kind := opRkNN
	for k := opKind(0); k < numKinds; k++ {
		if u < t.mix[k] {
			kind = k
			break
		}
		u -= t.mix[k]
	}
	if kind == opDelete && t.inserts < t.deletes+t.conns {
		kind = opInsert
	}
	switch kind {
	case opRkNN, opKNN:
		q := t.queries[t.rng.IntN(len(t.queries))]
		return op{kind: kind, body: mustJSON(map[string]any{"point": q, "k": t.k})}
	case opInsert:
		p := t.fresh[t.nextFresh%len(t.fresh)]
		t.nextFresh++
		t.inserts++
		return op{kind: opInsert, point: p, body: mustJSON(map[string]any{"point": p})}
	default:
		t.deletes++
		return op{kind: opDelete}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and float slices are encoded
	}
	return b
}

// liveSet tracks the points the benchmark inserted, so deletes target them
// and the oracle knows the live dataset at a quiescent checkpoint.
type liveSet struct {
	mu      sync.Mutex
	baseN   int
	points  map[int][]float64 // inserted and not deleted
	seen    map[int]bool      // every ID an insert returned
	order   []int             // inserted IDs not yet chosen for a delete, oldest first
	unknown int               // writes whose effect is unknown (sent, then failed)
}

func newLiveSet(baseN int) *liveSet {
	return &liveSet{baseN: baseN, points: map[int][]float64{}, seen: map[int]bool{}}
}

func (l *liveSet) inserted(id int, p []float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id < l.baseN || l.seen[id] {
		return fatalError{fmt.Errorf("insert returned duplicate id %d", id)}
	}
	l.seen[id] = true
	l.points[id] = p
	l.order = append(l.order, id)
	return nil
}

func (l *liveSet) takeVictim() (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.order) == 0 {
		return 0, false
	}
	id := l.order[0]
	l.order = l.order[1:]
	return id, true
}

func (l *liveSet) deleted(id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.points, id)
}

func (l *liveSet) lost() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.unknown++
}

// client sends ops to one HTTP endpoint and checks every response.
type client struct {
	base string
	hc   *http.Client
	live *liveSet // nil on read-only workloads
	k    int
}

func newClient(base string, conns int, live *liveSet, k int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &client{base: base, hc: &http.Client{Transport: tr}, live: live, k: k}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send sends body and returns the status and response body.
func (c *client) send(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// do performs one op. Non-2xx answers and transport errors are failures;
// a malformed 2xx answer is fatal.
func (c *client) do(ctx context.Context, o *op) error {
	switch o.kind {
	case opRkNN:
		_, err := c.rknn(ctx, "/v1/rknn", o.body)
		return err
	case opKNN:
		status, b, err := c.send(ctx, http.MethodPost, "/v1/knn", o.body)
		if err = statusErr(status, b, err, http.StatusOK); err != nil {
			return err
		}
		var resp struct {
			Neighbors []struct {
				ID   int     `json:"id"`
				Dist float64 `json:"dist"`
			} `json:"neighbors"`
		}
		if err := json.Unmarshal(b, &resp); err != nil || len(resp.Neighbors) != c.k {
			return fatalError{fmt.Errorf("malformed knn response %.200q", b)}
		}
		for i := 1; i < len(resp.Neighbors); i++ {
			if resp.Neighbors[i].Dist < resp.Neighbors[i-1].Dist {
				return fatalError{fmt.Errorf("knn response out of distance order: %.200q", b)}
			}
		}
		return nil
	case opInsert:
		status, b, err := c.send(ctx, http.MethodPost, "/v1/points", o.body)
		if err = statusErr(status, b, err, http.StatusCreated); err != nil {
			if status == 0 || status >= 500 {
				c.live.lost() // the insert may or may not have landed
			}
			return err
		}
		var resp struct {
			ID *int `json:"id"`
		}
		if err := json.Unmarshal(b, &resp); err != nil || resp.ID == nil {
			return fatalError{fmt.Errorf("malformed insert response %.200q", b)}
		}
		return c.live.inserted(*resp.ID, o.point)
	default:
		id, ok := c.live.takeVictim()
		if !ok {
			return fatalError{fmt.Errorf("no completed insert to delete")}
		}
		status, b, err := c.send(ctx, http.MethodDelete, "/v1/points/"+strconv.Itoa(id), nil)
		if status == http.StatusNotFound {
			return fatalError{fmt.Errorf("delete of inserted id %d returned not found", id)}
		}
		if err = statusErr(status, b, err, http.StatusOK); err != nil {
			c.live.lost()
			return err
		}
		c.live.deleted(id)
		return nil
	}
}

// rknn sends one reverse-kNN request and checks the answer: IDs strictly
// ascending and non-negative.
func (c *client) rknn(ctx context.Context, path string, body []byte) (*rknnAnswer, error) {
	status, b, err := c.send(ctx, http.MethodPost, path, body)
	if err = statusErr(status, b, err, http.StatusOK); err != nil {
		return nil, err
	}
	var a rknnAnswer
	if err := json.Unmarshal(b, &a); err != nil || a.IDs == nil {
		return nil, fatalError{fmt.Errorf("malformed rknn response %.200q", b)}
	}
	for i, id := range a.IDs {
		if id < 0 || (i > 0 && id <= a.IDs[i-1]) {
			return nil, fatalError{fmt.Errorf("rknn ids not ascending: %.200q", b)}
		}
	}
	return &a, nil
}

// rknnAnswer is the JSON answer of /v1/rknn, with the optional stats and
// debug trace.
type rknnAnswer struct {
	IDs   []int `json:"ids"`
	Stats *struct {
		ScanDepth     int
		FilterSize    int
		Excluded      int
		LazyAccepts   int
		LazyRejects   int
		Verified      int
		DistanceComps int64
	} `json:"stats"`
	Trace *struct {
		DurationUS int64    `json:"duration_us"`
		Root       spanJSON `json:"root"`
	} `json:"trace"`
}

// spanJSON is the exported span shape of the program's ?debug=1 trees.
type spanJSON struct {
	Name       string     `json:"name"`
	StartUS    int64      `json:"start_us"`
	DurationUS int64      `json:"duration_us"`
	Children   []spanJSON `json:"children"`
}

func statusErr(status int, body []byte, err error, want int) error {
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	return nil
}
