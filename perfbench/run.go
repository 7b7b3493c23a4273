package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/dataset"
)

// setups is how many times an end-to-end run starts the processes. Each
// start is timed and serves an equal share of the nominal phase, so set-up
// and latency are medians over starts.
const setups = 3

// run is the state of one benchmark run.
type run struct {
	w       *workload
	seed    int64
	seconds int
	bin     string
	dir     string
	conns   int // the generator's connection budget: one per CPU

	data    [][]float64
	csvPath string
	tr      *traffic
	oracleQ [][]float64 // fixed oracle sample
	replayQ [][]float64 // fixed traced-replay sample
	live    *liveSet
	g       group
	gmp     map[string]int // GOMAXPROCS of each process started
}

func newRun(w *workload, seed int64, seconds int, bin, dir string) (*run, error) {
	r := &run{w: w, seed: seed, seconds: seconds, bin: bin, dir: dir, conns: runtime.NumCPU(), gmp: map[string]int{}}
	r.data = w.data(seed)
	r.csvPath = filepath.Join(dir, "data.csv")
	f, err := os.Create(r.csvPath)
	if err != nil {
		return nil, err
	}
	if err := (&dataset.Dataset{Name: w.name, Points: r.data}).WriteCSV(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	r.tr = &traffic{mix: w.mix, k: rankK, rng: rng, queries: r.data, conns: r.conns}
	if w.fresh != nil {
		r.tr.fresh = w.fresh(seed)
		r.live = newLiveSet(len(r.data))
	}
	sample := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = r.data[rng.IntN(len(r.data))]
		}
		return out
	}
	r.oracleQ = sample(w.oracleQueries)
	r.replayQ = sample(w.replayQueries)
	return r, nil
}

// launch starts the workload's processes and times set-up: from the first
// launch to the first successful rknn answer through the front end. It
// returns the front end's base URL and the shard daemons' base URLs.
func (r *run) launch(ctx context.Context, traceSample float64) (front string, shards []string, setup time.Duration, err error) {
	ts := strconv.FormatFloat(traceSample, 'g', -1, 64)
	common := append([]string{"-addr", "127.0.0.1:0", "-csv", r.csvPath, "-trace-sample", ts}, r.w.flags()...)
	begin := time.Now()
	if r.w.shards == 0 {
		p, err := r.start("serve", append([]string{"serve"}, common...)...)
		if err != nil {
			return "", nil, 0, err
		}
		if front, err = p.waitListening(ctx, 60*time.Second); err != nil {
			return "", nil, 0, err
		}
	} else {
		var ps []*proc
		for s := 0; s < r.w.shards; s++ {
			args := append([]string{"shard-serve", "-shard", strconv.Itoa(s), "-shards", strconv.Itoa(r.w.shards)}, common...)
			p, err := r.start("shard"+strconv.Itoa(s), args...)
			if err != nil {
				return "", nil, 0, err
			}
			ps = append(ps, p)
		}
		args := []string{"coordinate", "-addr", "127.0.0.1:0", "-framing", "binary", "-trace-sample", ts}
		for _, p := range ps {
			addr, err := p.waitListening(ctx, 60*time.Second)
			if err != nil {
				return "", nil, 0, err
			}
			shards = append(shards, addr)
			args = append(args, "-shard", addr[len("http://"):])
		}
		p, err := r.start("coordinate", args...)
		if err != nil {
			return "", nil, 0, err
		}
		if front, err = p.waitListening(ctx, 30*time.Second); err != nil {
			return "", nil, 0, err
		}
	}
	c := newClient(front, 1, nil, rankK)
	defer c.close()
	body := mustJSON(map[string]any{"point": r.data[0], "k": rankK})
	for {
		if _, err := c.rknn(ctx, "/v1/rknn", body); err == nil {
			return front, shards, time.Since(begin), nil
		} else if errors.As(err, new(fatalError)) || time.Since(begin) > 90*time.Second {
			return "", nil, 0, fmt.Errorf("first query: %w", err)
		}
		select {
		case <-ctx.Done():
			return "", nil, 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (r *run) start(name string, args ...string) (*proc, error) {
	r.gmp[name] = r.conns
	return r.g.start(r.bin, name, r.dir, r.conns, args...)
}

// load runs rate·span scheduled ops against the front end.
func (r *run) load(ctx context.Context, c *client, rate float64, span time.Duration) (*phase, error) {
	ops := r.tr.schedule(rate, span)
	return runPhase(ctx, ops, span, r.conns, 10*time.Second, c.do)
}

// measuredLoad runs a warm-up second, calls warm (when not nil), and then
// runs the nominal rate for span, against a fresh live set (each start of
// the processes loads the base data again).
func (r *run) measuredLoad(ctx context.Context, front string, span time.Duration, rep *report, warm func() error) (*phase, error) {
	if r.live != nil {
		r.live = newLiveSet(len(r.data))
		r.tr.inserts, r.tr.deletes = 0, 0
	}
	c := newClient(front, r.conns, r.live, rankK)
	defer c.close()
	if _, err := r.load(ctx, c, r.w.nominal, time.Second); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if warm != nil {
		if err := warm(); err != nil {
			return nil, err
		}
	}
	p, err := r.load(ctx, c, r.w.nominal, span)
	if err != nil {
		return nil, fmt.Errorf("nominal phase: %w", err)
	}
	rep.Attempted += p.attempted()
	rep.Failed += p.failed()
	cnt := p.counts()
	sum := func(xs [numKinds]int) (n int) {
		for _, x := range xs {
			n += x
		}
		return n
	}
	rep.line("load: %.1f op/s for %s: %d scheduled, %d sent, %d ok, %d failed; rknn p50 %.3f ms",
		p.rate, p.span, p.attempted(), sum(cnt.sent), sum(cnt.ok), sum(cnt.failed), median(p.latencies(opRkNN)))
	return p, nil
}

// ask sends the queries one at a time and returns the answers with their
// stats.
func (r *run) ask(ctx context.Context, c *client, queries [][]float64) ([]*rknnAnswer, error) {
	out := make([]*rknnAnswer, len(queries))
	for i, q := range queries {
		a, err := c.rknn(ctx, "/v1/rknn", mustJSON(map[string]any{"point": q, "k": rankK, "stats": true}))
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = a
	}
	return out, nil
}

// endToEnd is the untraced run. It starts the processes several times;
// each start times set-up and then serves an equal share of the nominal
// phase, so the figures are medians over process starts. The last start
// then climbs the rate ladder and answers the exact-answer check at a
// quiescent checkpoint.
func (r *run) endToEnd(ctx context.Context) (*report, error) {
	rep := newReport()
	nomSpan, ladderSpan := spans(r.seconds)
	var setupS []float64
	var nominals []*phase
	var front string
	var cpu time.Duration // server CPU time over the nominal phases
	steal := newStealMeter()
	for i := 0; i < setups; i++ {
		r.g.stopAll()
		var setup time.Duration
		var err error
		if front, _, setup, err = r.launch(ctx, -1); err != nil {
			return nil, err
		}
		setupS = append(setupS, setup.Seconds())
		var cpu0 time.Duration
		p, err := r.measuredLoad(ctx, front, nomSpan/setups, rep, func() (err error) {
			cpu0, err = r.g.cpuTime()
			return err
		})
		if err != nil {
			return nil, err
		}
		cpu1, err := r.g.cpuTime()
		if err != nil {
			return nil, err
		}
		cpu += cpu1 - cpu0
		nominals = append(nominals, p)
	}
	rep.line("cpu steal share over the starts: %.3f (time the host ran other guests)", steal.share())
	rep.set("setup_s", "s", median(setupS))
	rep.line("setup: %d starts, median %.3f s (all: %.3f)", len(setupS), median(setupS), setupS)
	r.latencyLines(rep, nominals)
	ops := 0
	for _, p := range nominals {
		ops += p.attempted()
	}
	rep.line("  server_cpu_ms_per_op %.4f ms (%.2f s of server CPU over %d ops)", durMS(cpu)/float64(ops), cpu.Seconds(), ops)

	// The rate ladder, on the last start: its nominal phase is the first
	// rung.
	c := newClient(front, r.conns, r.live, rankK)
	defer c.close()
	t := p95
	first := rungOf(nominals[len(nominals)-1], r.w.limit)
	rungSpan := ladderSpan / time.Duration(len(r.w.ladder))
	best, ok, ran, err := climb(append([]float64{r.w.nominal}, r.w.ladder...), t, r.w.limit, func(rate float64) (rung, error) {
		if rate == r.w.nominal {
			return first, nil
		}
		p, err := r.load(ctx, c, rate, rungSpan)
		if err != nil {
			return rung{}, err
		}
		rep.Attempted += p.attempted()
		rep.Failed += p.failed()
		return rungOf(p, r.w.limit), nil
	})
	if err != nil {
		return nil, fmt.Errorf("rate ladder: %w", err)
	}
	for _, g := range ran {
		rep.line("ladder: offered %6.1f/s achieved %7.2f/s rknn %4d missed %3d backlog %3d holds=%v",
			g.rate, g.achieved, g.rknn, g.missed, g.backlog, g.holds(t, r.w.limit))
	}
	rate := 0.0
	if ok {
		rate = best.achieved
	}
	rep.line("  rate_at_slo_qps %.2f 1/s (rknn %s limit %s, %d connections)", rate, t.name, r.w.limit, r.conns)

	if err := r.checkAnswers(ctx, c, front, rep); err != nil {
		return nil, err
	}
	rss, err := r.g.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.set("rss_mb", "MiB", rss)
	return rep, nil
}

// spans splits the measured seconds: three quarters at the nominal rate,
// one quarter on the rate ladder.
func spans(seconds int) (nominal, ladder time.Duration) {
	total := time.Duration(seconds) * time.Second
	return total * 3 / 4, total - total*3/4
}

// latencyLines records the nominal phases' latencies by kind, pooled over
// the process starts, with sample counts and the error rate.
func (r *run) latencyLines(rep *report, ps []*phase) {
	var attempted, failed int
	var lat [numKinds][]float64
	for _, p := range ps {
		attempted += p.attempted()
		failed += p.failed()
		for k := opKind(0); k < numKinds; k++ {
			lat[k] = append(lat[k], p.latencies(k)...)
		}
	}
	rep.line("nominal: %.1f op/s over %d starts", r.w.nominal, len(ps))
	rep.line("  error_rate %.4f (%d failed of %d attempted)", float64(failed)/float64(attempted), failed, attempted)
	named := func(prefix string, ms []float64) {
		if len(ms) == 0 {
			return
		}
		rep.line("  %s_p50_ms %.3f ms (n=%d)", prefix, median(ms), len(ms))
		if t, ok := tailFor(len(ms)); ok {
			rep.line("  %s_%s_ms %.3f ms (n=%d)", prefix, t.name, percentile(ms, t.q), len(ms))
		}
	}
	named("rknn", lat[opRkNN])
	named("knn", lat[opKNN])
	named("write", append(lat[opInsert], lat[opDelete]...))

}

// checkAnswers asks the oracle sample at a quiescent checkpoint and scores
// the answers against brute force over the live dataset.
func (r *run) checkAnswers(ctx context.Context, c *client, front string, rep *report) error {
	got, err := r.ask(ctx, c, r.oracleQ)
	rep.Attempted += len(r.oracleQ)
	if err != nil {
		if !errors.As(err, new(fatalError)) {
			rep.Failed++
		}
		rep.fail("oracle sample: %v", err)
		return nil
	}
	d := baseData(r.data)
	if r.live != nil {
		if r.live.unknown > 0 {
			rep.fail("%d writes failed after being sent, so the live set is unknown", r.live.unknown)
			return nil
		}
		d = r.live.data(r.data)
	}
	// The coordinator's point count is refreshed by its health loop (one
	// probe a second), so it may lag the writes briefly: poll for up to
	// three probe periods and report how long it took to agree.
	var health struct {
		Points int `json:"points"`
	}
	settle := time.Now()
	for {
		if err := getJSON(ctx, front+"/healthz", &health); err != nil {
			return err
		}
		if health.Points == len(d.ids) || time.Since(settle) > 3*time.Second {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if health.Points != len(d.ids) {
		rep.fail("server holds %d points, the benchmark tracked %d", health.Points, len(d.ids))
	} else if waited := time.Since(settle); waited > 50*time.Millisecond {
		rep.line("  /healthz point count agreed with the tracked live set after %.2f s", waited.Seconds())
	}
	exact, err := exactRkNN(d, r.oracleQ, rankK)
	if err != nil {
		return err
	}
	q := score(got, exact)
	rep.line("oracle: %d queries at a quiescent checkpoint over %d live points", q.queries, len(d.ids))
	rep.line("  recall %.4f (n=%d)", q.recall(), q.queries)
	rep.line("  precision %.4f (n=%d, %d false hits)", q.precision(), q.queries, q.falseHits)
	if q.unexplained > 0 {
		rep.fail("%d answers hold more false hits than the query accepted lazily", q.unexplained)
	}
	if q.precision() < r.w.minPrecision {
		rep.fail("precision %.4f below the workload floor %.2f", q.precision(), r.w.minPrecision)
	}
	if q.recall() < r.w.minRecall {
		rep.fail("recall %.4f below the workload floor %.2f", q.recall(), r.w.minRecall)
	}
	return nil
}

// getJSON fetches url into v.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
