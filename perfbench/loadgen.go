package main

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"
)

// The open-loop generator. A phase is a precomputed schedule of operations,
// each due at a fixed offset from the phase start. One goroutine releases
// the operations at their due times into a FIFO queue, whatever the state of
// the server; a fixed set of workers, one per connection, drains the queue.
// Every time is taken from the due time, so a stalled server is charged for
// the wait it imposes on the requests queued behind it (no coordinated
// omission).

// opKind names the operations of the traffic mixes.
type opKind int

const (
	opRkNN opKind = iota
	opKNN
	opInsert
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"rknn", "knn", "insert", "delete"}

func (k opKind) String() string { return kindNames[k] }

// op is one scheduled request.
type op struct {
	kind  opKind
	due   time.Duration // offset from the phase start
	body  []byte        // encoded JSON request; nil for deletes
	point []float64     // the inserted point, for inserts
}

// outcome is what happened to one op.
type outcome struct {
	sent    bool
	lag     time.Duration // generator lateness: release time minus due time
	wait    time.Duration // connection wait: dequeue time minus due time
	latency time.Duration // completion time minus due time
	err     error         // nil on success
}

// phase is the record of one run of a schedule.
type phase struct {
	rate     float64
	span     time.Duration // length of the schedule
	ops      []op
	out      []outcome
	backlog  int           // ops still queued when the last one was released
	duration time.Duration // phase start to last completion
}

// errNotSent marks an op the generator never sent because the phase
// deadline passed while it was queued. It counts as failed.
var errNotSent = errors.New("not sent: phase deadline passed while queued")

// fatalError marks a response that invalidates the whole run: a malformed
// body, a duplicate insert ID, or a failed delete of the benchmark's own
// insert. Ordinary failures (non-2xx, timeouts) are counted, not fatal.
type fatalError struct{ error }

// doFunc performs one op against the system under test.
type doFunc func(ctx context.Context, o *op) error

// runPhase releases ops on their schedule to at most workers concurrent
// requests and waits for all of them. Ops still queued grace after the end
// of the schedule are not sent. A fatal error from do stops the phase and
// is returned.
func runPhase(ctx context.Context, ops []op, span time.Duration, workers int, grace time.Duration, do doFunc) (*phase, error) {
	p := &phase{span: span, ops: ops, out: make([]outcome, len(ops))}
	if span > 0 {
		p.rate = float64(len(ops)) / span.Seconds()
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	start := time.Now().Add(2 * time.Millisecond)
	deadline := start.Add(span + grace)
	// The queue holds every op of the phase, so releasing never blocks and
	// the release time measures only the generator's own lateness.
	queue := make(chan int, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := start.Add(ops[i].due)
				o := &p.out[i]
				if ctx.Err() != nil || time.Now().After(deadline) {
					o.err = errNotSent
					continue
				}
				o.sent = true
				o.wait = time.Since(due)
				rctx, rcancel := context.WithDeadline(ctx, deadline)
				o.err = do(rctx, &ops[i])
				rcancel()
				o.latency = time.Since(due)
				var fe fatalError
				if errors.As(o.err, &fe) {
					cancel(fe)
				}
			}
		}()
	}
	for i := range ops {
		due := start.Add(ops[i].due)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		p.out[i].lag = time.Since(due)
		queue <- i
	}
	p.backlog = len(queue)
	close(queue)
	wg.Wait()
	p.duration = time.Since(start)
	return p, context.Cause(ctx)
}

// counts tallies one phase per op kind.
type counts struct {
	sent, ok, failed [numKinds]int
}

func (p *phase) counts() counts {
	var c counts
	for i, o := range p.out {
		k := p.ops[i].kind
		if o.sent {
			c.sent[k]++
		}
		if o.err == nil {
			c.ok[k]++
		} else {
			c.failed[k]++
		}
	}
	return c
}

// attempted and failed count every op of the phase; an op the generator
// never sent is a failure.
func (p *phase) attempted() int { return len(p.ops) }

func (p *phase) failed() int {
	n := 0
	for _, o := range p.out {
		if o.err != nil {
			n++
		}
	}
	return n
}

// latencies returns the latencies of kind in milliseconds. A failed op
// counts as +Inf, so it misses every latency limit and lifts every
// percentile it reaches.
func (p *phase) latencies(kind opKind) []float64 {
	var ms []float64
	for i, o := range p.out {
		switch {
		case p.ops[i].kind != kind:
		case o.err != nil:
			ms = append(ms, math.Inf(1))
		default:
			ms = append(ms, durMS(o.latency))
		}
	}
	return ms
}

// lags and waits return every op's generator lateness and connection wait
// in milliseconds.
func (p *phase) lags() []float64 {
	out := make([]float64, len(p.out))
	for i, o := range p.out {
		out[i] = durMS(o.lag)
	}
	return out
}

func (p *phase) waits() []float64 {
	var out []float64
	for _, o := range p.out {
		if o.sent {
			out = append(out, durMS(o.wait))
		}
	}
	return out
}

// achieved is the successful ops per second over the phase.
func (p *phase) achieved() float64 {
	ok := 0
	for _, o := range p.out {
		if o.err == nil {
			ok++
		}
	}
	d := p.duration
	if d < p.span {
		d = p.span
	}
	return float64(ok) / d.Seconds()
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
