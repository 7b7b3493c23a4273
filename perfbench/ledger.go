package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	repro "repro"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/vecmath"
	"repro/internal/wire"
)

// The per-layer ledger. Times are taken from the benchmark's own calls into
// each layer's public functions; nothing is added inside the program. Counts
// come from the program's public Stats, /statsz and /metrics, and the
// core.scan/filter/verify split from its existing ?debug=1 span trees. A
// layer the workload does not cross reports 0.

// perLayer names every ledger metric with its unit, in print order.
var perLayer = []struct{ name, unit string }{
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.conn_wait_p99_ms", "ms"},
	{"transport.self_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.req_bytes", "bytes"},
	{"server.resp_bytes", "bytes"},
	{"engine.rknn_ms_p50", "ms"},
	{"facade.self_us_p50", "us"},
	{"core.scan_ms", "ms"},
	{"core.filter_ms", "ms"},
	{"core.verify_ms", "ms"},
	{"core.scan_depth", "count"},
	{"core.filter_size", "count"},
	{"core.verified", "count"},
	{"core.distance_comps", "count"},
	{"core.lazy_settled_ratio", "ratio"},
	{"index.knn_us_p50", "us"},
	{"index.memtable_points", "count"},
	{"index.compactions_per_1k_writes", "count"},
	{"vecmath.distance_ns", "ns"},
	{"vecmath.distance_generic_ns", "ns"},
	{"vecmath.quant_screened_ratio", "ratio"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.bytes_per_query", "bytes"},
	{"remote.rpcs_per_query", "count"},
	{"remote.call_ms_p50", "ms"},
	{"remote.retries", "count"},
	{"scatter.scan_amplification", "ratio"},
	{"scatter.distance_comps_amplification", "ratio"},
	{"proc.gc_cycles_per_1k_ops", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// ledger is the traced run. The processes first run untraced for the
// reference latency, the generator's own figures and (on a cluster) the
// wire replay; then traced, for the overhead, the counters and the span
// trees; then the benchmark replays the same queries in-process through
// nested public calls.
func (r *run) ledger(ctx context.Context) (*report, error) {
	rep := newReport()
	for _, m := range perLayer {
		rep.set(m.name, m.unit, 0)
	}
	// Two loaded phases, untraced and traced, share the nominal time.
	nomSpan, _ := spans(r.seconds)
	half := nomSpan / 2

	// Untraced processes.
	front, shards, _, err := r.launch(ctx, -1)
	if err != nil {
		return nil, err
	}
	var shardStats []repro.Stats
	if len(shards) > 0 {
		// The first pass warms connections and caches; the second counts.
		var wl wireLedger
		for pass := 0; pass < 2; pass++ {
			if wl, shardStats, err = r.wireReplay(ctx, shards); err != nil {
				return nil, err
			}
		}
		n := float64(len(r.replayQ))
		rep.set("wire.encode_us", "us", wl.encode.Seconds()*1e6/n)
		rep.set("wire.decode_us", "us", wl.decode.Seconds()*1e6/n)
		rep.set("wire.bytes_per_query", "bytes", float64(wl.bytes)/n)
		rep.line("wire replay: %d queries, %.1f frames per query", len(r.replayQ), float64(wl.frames)/n)
	}
	plain, err := r.measuredLoad(ctx, front, half, rep, nil)
	if err != nil {
		return nil, err
	}
	rep.set("loadgen.lag_p99_ms", "ms", percentile(plain.lags(), 0.99))
	rep.set("loadgen.conn_wait_p99_ms", "ms", percentile(plain.waits(), 0.99))
	r.g.stopAll()

	// Traced processes. The counters are read around the measured phase,
	// after the warm-up.
	if front, shards, _, err = r.launch(ctx, 1); err != nil {
		return nil, err
	}
	var before scrapeSet
	var sampler *memtableSampler
	traced, err := r.measuredLoad(ctx, front, half, rep, func() (err error) {
		before, err = r.scrape(ctx)
		sampler = r.sampleMemtables(ctx)
		return err
	})
	memtable := 0.0
	if sampler != nil {
		memtable = sampler.stop()
	}
	if err != nil {
		return nil, err
	}
	after, err := r.scrape(ctx)
	if err != nil {
		return nil, err
	}
	r.countLines(rep, traced, before, after, memtable)
	rep.set("trace.overhead_ratio", "ratio", median(traced.latencies(opRkNN))/median(plain.latencies(opRkNN)))

	debug, err := r.debugReplay(ctx, front, shards, rep)
	if err != nil {
		return nil, err
	}
	c := newClient(front, 1, r.live, rankK)
	defer c.close()
	if err := r.checkAnswers(ctx, c, front, rep); err != nil {
		return nil, err
	}
	var sz struct {
		Engine struct {
			Scale float64 `json:"scale"`
		} `json:"engine"`
	}
	if err := getJSON(ctx, front+"/statsz", &sz); err != nil {
		return nil, err
	}
	scale := sz.Engine.Scale
	r.g.stopAll()

	// In-process replay over an engine and an index the benchmark builds.
	single, err := r.inProcess(ctx, scale, rep)
	if err != nil {
		return nil, err
	}
	if len(shardStats) > 0 {
		var scan, dc, scan1, dc1 float64
		for i := range shardStats {
			scan += float64(shardStats[i].ScanDepth)
			dc += float64(shardStats[i].DistanceComps)
			scan1 += float64(single[i].ScanDepth)
			dc1 += float64(single[i].DistanceComps)
		}
		rep.set("scatter.scan_amplification", "ratio", scan/scan1)
		rep.set("scatter.distance_comps_amplification", "ratio", dc/dc1)
	} else {
		// On one engine the served answers must equal the benchmark's own.
		for i, a := range debug {
			if !slices.Equal(a.IDs, single[i].IDs) {
				rep.fail("replay query %d: served ids %v, in-process engine %v", i, a.IDs, single[i].IDs)
				break
			}
		}
	}
	r.distanceBench(rep)
	return rep, nil
}

// scrapeSet is /statsz and /metrics of every process, read at one moment.
type scrapeSet struct {
	gc, compactions float64
	series          map[string]float64 // Prometheus series, summed over processes
}

func (r *run) scrape(ctx context.Context) (scrapeSet, error) {
	s := scrapeSet{series: map[string]float64{}}
	for _, p := range r.g.procs {
		var sz statsz
		if err := getJSON(ctx, p.addr+"/statsz", &sz); err != nil {
			return s, err
		}
		s.gc += sz.Runtime.GCCycles
		s.compactions += sz.Engine.Compactions
		if err := scrapeMetrics(ctx, p.addr+"/metrics", s.series); err != nil {
			return s, err
		}
	}
	return s, nil
}

type statsz struct {
	Runtime struct {
		GCCycles float64 `json:"gc_cycles"`
	} `json:"runtime"`
	Engine struct {
		Memtable    float64 `json:"memtable_points"`
		Compactions float64 `json:"compactions"`
	} `json:"engine"`
}

// scrapeMetrics adds every sample of a Prometheus text exposition into sum,
// keyed by series with the labels other than le dropped.
func scrapeMetrics(ctx context.Context, url string, sum map[string]float64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		sum[seriesKey(line[:i])] += v
	}
	return sc.Err()
}

// seriesKey reduces `name{a="x",le="0.1"}` to `name` or `name{le="0.1"}`.
func seriesKey(s string) string {
	name, labels, ok := strings.Cut(s, "{")
	if !ok {
		return s
	}
	for _, l := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
		if strings.HasPrefix(l, "le=") {
			return name + "{" + l + "}"
		}
	}
	return name
}

// delta of one series between two scrapes.
func (s scrapeSet) delta(before scrapeSet, key string) float64 {
	return s.series[key] - before.series[key]
}

// histQuantile estimates the q-quantile of the observations a histogram
// gained between two scrapes, interpolating linearly within a bucket.
func histQuantile(before, after scrapeSet, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after.series {
		rest, ok := strings.CutPrefix(k, name+`_bucket{le="`)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue // +Inf parses; anything else is not a bound
		}
		bs = append(bs, bucket{le, v - before.series[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-prev)/math.Max(b.n-prev, 1)
		}
		lo, prev = b.le, b.n
	}
	return lo
}

// memtableSampler polls the summed memtable size while a phase runs.
type memtableSampler struct {
	cancel  context.CancelFunc
	done    chan struct{}
	samples []float64
}

func (r *run) sampleMemtables(ctx context.Context) *memtableSampler {
	ctx, cancel := context.WithCancel(ctx)
	m := &memtableSampler{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(m.done)
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(250 * time.Millisecond):
			}
			sum := 0.0
			for _, p := range r.g.procs {
				var sz statsz
				if getJSON(ctx, p.addr+"/statsz", &sz) != nil {
					return // the phase is over or the process is gone
				}
				sum += sz.Engine.Memtable
			}
			m.samples = append(m.samples, sum)
		}
	}()
	return m
}

// stop ends the polling and returns the mean memtable size.
func (m *memtableSampler) stop() float64 {
	m.cancel()
	<-m.done
	if len(m.samples) == 0 {
		return 0
	}
	return mean(m.samples)
}

// countLines turns the counter deltas of the traced phase into ledger
// entries.
func (r *run) countLines(rep *report, p *phase, before, after scrapeSet, memtable float64) {
	cnt := p.counts()
	ops := float64(p.attempted())
	writes := float64(cnt.sent[opInsert] + cnt.sent[opDelete])
	rep.set("proc.gc_cycles_per_1k_ops", "count", (after.gc-before.gc)/ops*1000)
	rep.set("index.memtable_points", "count", memtable)
	if writes > 0 {
		rep.set("index.compactions_per_1k_writes", "count", (after.compactions-before.compactions)/writes*1000)
	}
	admitted := after.delta(before, "rknn_candidates_quant_admitted_total")
	screened := after.delta(before, "rknn_candidates_quant_screened_total")
	if admitted+screened > 0 {
		rep.set("vecmath.quant_screened_ratio", "ratio", screened/(admitted+screened))
	}
	if r.w.shards > 0 {
		rep.set("remote.call_ms_p50", "ms", 1000*histQuantile(before, after, "rknn_remote_shard_request_duration_seconds", 0.5))
		rep.set("remote.retries", "count", after.delta(before, "rknn_remote_shard_retries_total"))
	}
	rep.line("traced phase: %d ops, %d writes, %.0f gc cycles, %.0f compactions",
		p.attempted(), int(writes), after.gc-before.gc, after.compactions-before.compactions)
}

// debugReplay sends the replay sample one at a time with ?debug=1 and reads
// the core split, the Stats counters and the transport time. On a cluster
// the core spans live in the daemons, so each query also goes to every
// daemon directly, as the scatter phase sends it.
func (r *run) debugReplay(ctx context.Context, front string, shards []string, rep *report) ([]*rknnAnswer, error) {
	c := newClient(front, 1, nil, rankK)
	defer c.close()
	var before scrapeSet
	if len(shards) > 0 {
		var err error
		if before, err = r.scrape(ctx); err != nil {
			return nil, err
		}
	}
	var transportUS []float64
	var scan, filter, verify float64
	var st repro.Stats
	var answers []*rknnAnswer
	for _, q := range r.replayQ {
		body := mustJSON(map[string]any{"point": q, "k": rankK, "stats": true})
		t0 := time.Now()
		a, err := c.rknn(ctx, "/v1/rknn?debug=1", body)
		rtt := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("debug replay: %w", err)
		}
		if a.Trace == nil || a.Stats == nil {
			return nil, fmt.Errorf("debug replay: answer without trace or stats")
		}
		answers = append(answers, a)
		transportUS = append(transportUS, float64(rtt.Microseconds()-a.Trace.DurationUS))
		st.ScanDepth += a.Stats.ScanDepth
		st.FilterSize += a.Stats.FilterSize
		st.Excluded += a.Stats.Excluded
		st.LazyAccepts += a.Stats.LazyAccepts
		st.LazyRejects += a.Stats.LazyRejects
		st.Verified += a.Stats.Verified
		st.DistanceComps += a.Stats.DistanceComps
		trees := []spanJSON{a.Trace.Root}
		for _, s := range shards {
			sc := newClient(s, 1, nil, rankK)
			sa, err := sc.rknn(ctx, "/v1/rknn?debug=1", body)
			sc.close()
			if err != nil {
				return nil, fmt.Errorf("debug replay on %s: %w", s, err)
			}
			if sa.Trace == nil {
				return nil, fmt.Errorf("debug replay on %s: answer without trace", s)
			}
			trees = append(trees, sa.Trace.Root)
		}
		for _, t := range trees {
			scan += spanMS(t, "core.scan")
			filter += spanMS(t, "core.filter")
			verify += spanMS(t, "core.verify")
		}
	}
	n := float64(len(r.replayQ))
	rep.set("transport.self_us_p50", "us", median(transportUS))
	rep.set("core.scan_ms", "ms", scan/n)
	rep.set("core.filter_ms", "ms", filter/n)
	rep.set("core.verify_ms", "ms", verify/n)
	rep.set("core.scan_depth", "count", float64(st.ScanDepth)/n)
	rep.set("core.filter_size", "count", float64(st.FilterSize)/n)
	rep.set("core.verified", "count", float64(st.Verified)/n)
	rep.set("core.distance_comps", "count", float64(st.DistanceComps)/n)
	if gen := st.FilterSize + st.Excluded; gen > 0 {
		rep.set("core.lazy_settled_ratio", "ratio", float64(st.LazyAccepts+st.LazyRejects)/float64(gen))
	}
	if len(shards) > 0 {
		after, err := r.scrape(ctx)
		if err != nil {
			return nil, err
		}
		rep.set("remote.rpcs_per_query", "count", after.delta(before, "rknn_remote_shard_requests_total")/n)
	}
	rep.line("debug replay: %d queries through %s", len(r.replayQ), front)
	return answers, nil
}

// spanMS sums the durations of the spans named name in the tree.
func spanMS(s spanJSON, name string) float64 {
	ms := 0.0
	if s.Name == name {
		ms += float64(s.DurationUS) / 1000
	}
	for _, c := range s.Children {
		ms += spanMS(c, name)
	}
	return ms
}

// singleAnswer is the in-process engine's answer to one replay query.
type singleAnswer struct {
	IDs []int
	repro.Stats
}

// replayRepeats is how often each nested call is repeated per query; the
// fastest repeat is kept, which filters out preemption and GC.
const replayRepeats = 5

// inProcess replays the sample through server.Handler().ServeHTTP, the
// engine's ReverseKNNPointStatsContext, core.Querier.ByPointCtx and
// index.Index.KNN, each timed on its own, and takes each layer's self time
// as its call minus the nested call. It checks that the benchmark's own
// Querier answers exactly as the engine does.
func (r *run) inProcess(ctx context.Context, scale float64, rep *report) ([]singleAnswer, error) {
	ix, err := harness.BuildBackend(r.w.backend, r.data, vecmath.Euclidean{})
	if err != nil {
		return nil, err
	}
	if r.w.quant {
		qf, ok := ix.(index.QuantFiltered)
		if !ok {
			return nil, fmt.Errorf("back-end %s has no quantized filter", r.w.backend)
		}
		if err := qf.EnableQuantFilter(nil); err != nil {
			return nil, err
		}
	}
	if _, ok := ix.(index.Cloner); ok {
		ix = index.NewOverlay(ix)
	}
	opts := []repro.Option{repro.WithBackend(repro.Backend(r.w.backend)), repro.WithScale(scale)}
	if r.w.quant {
		opts = append(opts, repro.WithQuantizedFilter())
	}
	eng, err := repro.New(r.data, opts...)
	if err != nil {
		return nil, err
	}
	h := server.New(eng).Handler()
	qr, err := core.NewQuerier(ix, core.Params{K: rankK, T: scale, Plus: true})
	if err != nil {
		return nil, err
	}

	// Each query runs through every layer replayRepeats times, the layers
	// alternating forward and backward so neither order nor drift favours
	// one; each layer keeps its fastest call per query.
	nq := len(r.replayQ)
	out := make([]singleAnswer, nq)
	coreIDs := make([][]int, nq)
	bodies := make([][]byte, nq)
	for i, q := range r.replayQ {
		bodies[i] = mustJSON(map[string]any{"point": q, "k": rankK})
	}
	var reqBytes, respBytes int
	layers := []func(i int) error{
		func(i int) error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rknn", bytes.NewReader(bodies[i])))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process ServeHTTP: %d %s", rec.Code, rec.Body)
			}
			reqBytes, respBytes = reqBytes+len(bodies[i]), respBytes+rec.Body.Len()
			return nil
		},
		func(i int) error {
			ids, st, err := eng.ReverseKNNPointStatsContext(ctx, r.replayQ[i], rankK)
			out[i] = singleAnswer{IDs: ids, Stats: st}
			return err
		},
		func(i int) error {
			res, err := qr.ByPointCtx(ctx, r.replayQ[i])
			if err == nil {
				coreIDs[i] = res.IDs
			}
			return err
		},
		func(i int) error {
			ix.KNN(r.replayQ[i], rankK, -1)
			return nil
		},
	}
	best := make([][]float64, len(layers)) // [layer][query] fastest call in us
	for l := range best {
		best[l] = make([]float64, nq)
	}
	for i := range r.replayQ {
		for n := 0; n < replayRepeats; n++ {
			for j := range layers {
				l := j
				if n%2 == 1 {
					l = len(layers) - 1 - j
				}
				t0 := time.Now()
				if err := layers[l](i); err != nil {
					return nil, err
				}
				us := float64(time.Since(t0)) / 1e3
				if n == 0 || us < best[l][i] {
					best[l][i] = us
				}
			}
		}
	}
	for i := range coreIDs {
		if !slices.Equal(coreIDs[i], out[i].IDs) {
			rep.fail("replay query %d: core.Querier ids %v, engine ids %v", i, coreIDs[i], out[i].IDs)
			break
		}
	}
	serverSelf := make([]float64, nq)
	facadeSelf := make([]float64, nq)
	for i := range serverSelf {
		serverSelf[i] = best[0][i] - best[1][i]
		facadeSelf[i] = best[1][i] - best[2][i]
	}
	n := float64(len(r.replayQ) * replayRepeats)
	rep.set("server.self_us_p50", "us", median(serverSelf))
	rep.set("server.req_bytes", "bytes", float64(reqBytes)/n)
	rep.set("server.resp_bytes", "bytes", float64(respBytes)/n)
	rep.set("engine.rknn_ms_p50", "ms", median(best[1])/1000)
	rep.set("facade.self_us_p50", "us", median(facadeSelf))
	rep.set("index.knn_us_p50", "us", median(best[3]))
	rep.line("in-process replay: %d queries x%d; p50 ServeHTTP %.1f us, engine %.1f us, core %.1f us, knn %.1f us",
		nq, replayRepeats, median(best[0]), median(best[1]), median(best[2]), median(best[3]))
	// A self time far below the calls it is taken from can read negative;
	// the quartiles show how far it is from zero.
	rep.line("  per-query self us, quartiles: server %.1f..%.1f, facade %.1f..%.1f",
		percentile(serverSelf, 0.25), percentile(serverSelf, 0.75), percentile(facadeSelf, 0.25), percentile(facadeSelf, 0.75))
	return out, nil
}

// sink keeps the distance loops from being optimized away.
var sink float64

// distanceBench times one distance at the workload's dimension through the
// direct kernel and through the Metric interface.
func (r *run) distanceBench(rep *report) {
	m := vecmath.Metric(vecmath.Euclidean{})
	kernel := vecmath.KernelFor(m)
	dim := len(r.data[0])
	calls := max(20000, 20_000_000/dim)
	// The two are timed in alternation, five rounds each; each reports the
	// median round.
	fs := []func(a, b []float64) float64{kernel, m.Distance}
	per := make([][]float64, len(fs))
	for round := 0; round < 5; round++ {
		for j, f := range fs {
			t0 := time.Now()
			s := 0.0
			for i := 0; i < calls; i++ {
				s += f(r.data[i%len(r.data)], r.data[(i+1)%len(r.data)])
			}
			per[j] = append(per[j], float64(time.Since(t0).Nanoseconds())/float64(calls))
			sink += s
		}
	}
	rep.set("vecmath.distance_ns", "ns", median(per[0]))
	rep.set("vecmath.distance_generic_ns", "ns", median(per[1]))
}

// wireLedger totals the binary framing work of the replay sample.
type wireLedger struct {
	encode, decode time.Duration
	bytes, frames  int
}

// wireReplay sends each replay query to the shard daemons as the
// coordinator does over binary framing: a reverse-kNN scatter to every
// shard, a points fetch from each candidate's home shard, and one forward
// kNN batch per shard over all candidates. It times the wire package's
// Append and Decode calls and counts the frame bytes, and returns the
// summed shard Stats per query.
func (r *run) wireReplay(ctx context.Context, shards []string) (wireLedger, []repro.Stats, error) {
	var wl wireLedger
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	call := func(shard string, frame []byte) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, shard+"/v1/binary", bytes.NewReader(frame))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", wire.ContentType)
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		wl.bytes += len(frame) + len(b)
		wl.frames += 2
		return b, nil
	}
	timed := func(d *time.Duration, f func() error) error {
		t0 := time.Now()
		err := f()
		*d += time.Since(t0)
		return err
	}
	stats := make([]repro.Stats, len(r.replayQ))
	for qi, q := range r.replayQ {
		type cand struct{ home, local int }
		var cands []cand
		for s, addr := range shards {
			var frame []byte
			_ = timed(&wl.encode, func() error { frame = wire.AppendRkNNPointRequest(nil, q, rankK); return nil })
			resp, err := call(addr, frame)
			if err != nil {
				return wl, nil, err
			}
			var ids []int
			var st wire.Stats
			if err := timed(&wl.decode, func() (err error) { ids, st, err = wire.DecodeRkNNResponse(resp); return }); err != nil {
				return wl, nil, fmt.Errorf("shard %d: %w", s, err)
			}
			stats[qi].ScanDepth += st.ScanDepth
			stats[qi].DistanceComps += st.DistanceComps
			for _, id := range ids {
				cands = append(cands, cand{s, id})
			}
		}
		if len(cands) == 0 {
			continue
		}
		rows := make([][]float64, len(cands))
		for s, addr := range shards {
			var pos, locals []int
			for j, c := range cands {
				if c.home == s {
					pos, locals = append(pos, j), append(locals, c.local)
				}
			}
			if len(locals) == 0 {
				continue
			}
			var frame []byte
			_ = timed(&wl.encode, func() error { frame = wire.AppendPointsRequest(nil, locals); return nil })
			resp, err := call(addr, frame)
			if err != nil {
				return wl, nil, err
			}
			var got [][]float64
			if err := timed(&wl.decode, func() (err error) { got, err = wire.DecodePointsResponse(resp); return }); err != nil {
				return wl, nil, fmt.Errorf("shard %d points: %w", s, err)
			}
			if len(got) != len(pos) {
				return wl, nil, fmt.Errorf("shard %d returned %d points for %d ids", s, len(got), len(pos))
			}
			for t, j := range pos {
				rows[j] = got[t]
			}
		}
		for s, addr := range shards {
			probes := make([]wire.KNNQuery, len(cands))
			for j, c := range cands {
				skip := -1
				if c.home == s {
					skip = c.local
				}
				probes[j] = wire.KNNQuery{Point: rows[j], K: rankK, Skip: skip}
			}
			var frame []byte
			_ = timed(&wl.encode, func() error { frame = wire.AppendKNNBatchRequest(nil, probes); return nil })
			resp, err := call(addr, frame)
			if err != nil {
				return wl, nil, err
			}
			var lists [][]wire.Neighbor
			if err := timed(&wl.decode, func() (err error) { lists, err = wire.DecodeKNNBatchResponse(resp); return }); err != nil {
				return wl, nil, fmt.Errorf("shard %d knn batch: %w", s, err)
			}
			if len(lists) != len(probes) {
				return wl, nil, fmt.Errorf("shard %d returned %d knn lists for %d probes", s, len(lists), len(probes))
			}
		}
	}
	return wl, stats, nil
}
