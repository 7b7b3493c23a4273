package server

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	repro "repro"
	"repro/internal/indextest"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// unshardedSurface is what an operator sees of an unsharded engine behind
// the HTTP server: the /metrics family names, the /statsz engine keys, and
// the span names of one ?debug=1 request per data-plane route.
type unshardedSurface struct {
	families   []string
	engineKeys []string
	spans      map[string][]string // route -> sorted span names
}

// serveUnsharded drives a server over eng (built with reg and ring) and
// records its surface.
func serveUnsharded(t *testing.T, eng Engine, reg *telemetry.Registry, ring *trace.Ring) unshardedSurface {
	t.Helper()
	ts := httptest.NewServer(New(eng, WithRegistry(reg), WithTracing(ring, 0)).Handler())
	t.Cleanup(ts.Close)

	var sur unshardedSurface
	sur.spans = make(map[string][]string)
	for _, rq := range []struct {
		route string
		body  any
	}{
		{"/v1/rknn", map[string]any{"id": 7, "k": 5}},
		{"/v1/knn", map[string]any{"point": []float64{0.5, 0.5, 0.5}, "k": 4}},
		{"/v1/points", map[string]any{"point": []float64{0.25, 0.5, 0.75}}},
	} {
		// ?debug=1 retains the request's trace in the ring whatever the
		// sampling rate; read it back from there.
		if status := call(t, "POST", ts.URL+rq.route+"?debug=1", rq.body, nil); status/100 != 2 {
			t.Fatalf("%s?debug=1: status %d", rq.route, status)
		}
		var names []string
		var walk func(sp trace.SpanJSON)
		walk = func(sp trace.SpanJSON) {
			names = append(names, sp.Name)
			for _, c := range sp.Children {
				walk(c)
			}
		}
		for _, tr := range ring.Snapshot() {
			if tj := tr.Export(); tj.Root.Name == "http."+rq.route {
				names = names[:0]
				walk(tj.Root)
			}
		}
		sort.Strings(names)
		sur.spans[rq.route] = names
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			sur.families = append(sur.families, f[2])
		}
	}
	resp.Body.Close()
	sort.Strings(sur.families)

	var stats struct {
		Engine map[string]any `json:"engine"`
	}
	if status := call(t, "GET", ts.URL+"/statsz", nil, &stats); status != http.StatusOK {
		t.Fatalf("/statsz status %d", status)
	}
	for k := range stats.Engine {
		sur.engineKeys = append(sur.engineKeys, k)
	}
	sort.Strings(sur.engineKeys)
	return sur
}

// unshardedFamilies are the /metrics families of an unsharded engine
// served with a shared registry: engine, write-path, HTTP and runtime
// series, and no per-shard (rknn_shard_*) or shard-count series.
var unshardedFamilies = []string{
	"go_gc_cycles_total", "go_goroutines", "go_heap_alloc_bytes", "go_last_gc_pause_seconds",
	"rknn_candidates_excluded_total", "rknn_candidates_generated_total",
	"rknn_candidates_lazy_accepted_total", "rknn_candidates_lazy_settled_total",
	"rknn_candidates_verified_total", "rknn_compaction_duration_seconds",
	"rknn_compactions_total", "rknn_distance_comps_total",
	"rknn_http_request_duration_seconds", "rknn_http_request_errors_total",
	"rknn_http_requests_total", "rknn_memtable_points", "rknn_points",
	"rknn_pruning_ratio", "rknn_query_duration_seconds", "rknn_queries_total",
	"rknn_scale", "rknn_scan_depth_total",
}

// TestUnshardedServedSurface pins what the server exposes over New and
// NewDurable engines: the /metrics families, the /statsz engine keys, and
// the span names of traced /v1/rknn, /v1/knn and /v1/points requests.
func TestUnshardedServedSurface(t *testing.T) {
	pts := indextest.RandPoints(200, 3, 31)
	build := func(t *testing.T) (*repro.Searcher, *telemetry.Registry, *trace.Ring) {
		reg := telemetry.NewRegistry()
		s, err := repro.New(pts, repro.WithScale(40), repro.WithTelemetry(reg))
		if err != nil {
			t.Fatal(err)
		}
		ring := trace.NewRing(16)
		s.EnableTracing(ring)
		return s, reg, ring
	}
	engineKeys := []string{"approximate", "compactions", "dim", "memtable_points", "ops", "points", "scale", "windows"}
	spans := map[string][]string{
		"/v1/rknn": {"core.filter", "core.rknn", "core.scan", "core.verify", "facade.pin", "http./v1/rknn",
			"overlay.base", "overlay.memtable"},
		"/v1/knn":    {"core.knn", "http./v1/knn"},
		"/v1/points": {"facade.apply", "http./v1/points"},
	}

	t.Run("plain", func(t *testing.T) {
		s, reg, ring := build(t)
		got := serveUnsharded(t, s, reg, ring)
		checkSurface(t, got, unshardedFamilies, engineKeys, spans)
	})
	t.Run("durable", func(t *testing.T) {
		s, reg, ring := build(t)
		d, err := repro.NewDurable(t.TempDir(), s)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		durSpans := map[string][]string{
			"/v1/rknn":   spans["/v1/rknn"],
			"/v1/knn":    spans["/v1/knn"],
			"/v1/points": {"facade.apply", "http./v1/points", "wal.append", "wal.fsync"},
		}
		got := serveUnsharded(t, d, reg, ring)
		checkSurface(t, got, append([]string{"rknn_store_generation"}, unshardedFamilies...),
			append([]string{"generation"}, engineKeys...), durSpans)
	})
}

func checkSurface(t *testing.T, got unshardedSurface, families, engineKeys []string, spans map[string][]string) {
	t.Helper()
	families = append([]string(nil), families...)
	sort.Strings(families)
	engineKeys = append([]string(nil), engineKeys...)
	sort.Strings(engineKeys)
	if !reflect.DeepEqual(got.families, families) {
		t.Errorf("/metrics families:\n got %q\nwant %q", got.families, families)
	}
	if !reflect.DeepEqual(got.engineKeys, engineKeys) {
		t.Errorf("/statsz engine keys:\n got %q\nwant %q", got.engineKeys, engineKeys)
	}
	for route, want := range spans {
		if !reflect.DeepEqual(got.spans[route], want) {
			t.Errorf("%s?debug=1 spans:\n got %q\nwant %q", route, got.spans[route], want)
		}
	}
}
