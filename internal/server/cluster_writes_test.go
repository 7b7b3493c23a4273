// Write-path poisoning through the Coordinator: a daemon whose write
// acknowledgement disagrees with the coordinator's shard map, or a shard
// that fails its group of a multi-shard batch, must disable every later
// write through the coordinator while reads keep answering.
package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	repro "repro"
	"repro/internal/index"
	"repro/internal/indextest"
)

// faultTransport forwards every request to the default transport except
// the ones fault claims: for those it returns fault's response instead,
// without the daemon ever seeing the request.
type faultTransport struct {
	fault func(*http.Request) *http.Response
}

func (f faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if resp := f.fault(req); resp != nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return resp, nil
	}
	return http.DefaultTransport.RoundTrip(req)
}

func jsonResponse(req *http.Request, status int, body string) *http.Response {
	return &http.Response{
		StatusCode: status,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    req,
	}
}

// startFaultCluster serves each hash partition of pts from one daemon and
// fronts them with a Coordinator whose shard RPCs pass through fault. It
// returns the coordinator and each shard daemon's host:port.
func startFaultCluster(t *testing.T, pts [][]float64, S int, fault func(*http.Request) *http.Response) (*repro.Coordinator, []string) {
	t.Helper()
	parts := splitShards(t, pts, S)
	specs := make([]repro.ShardSpec, S)
	hosts := make([]string, S)
	for s := 0; s < S; s++ {
		eng, err := repro.New(parts[s], repro.WithScale(100))
		if err != nil {
			t.Fatalf("shard %d engine: %v", s, err)
		}
		ds := httptest.NewServer(New(eng, WithShardRole(s, S)).Handler())
		t.Cleanup(ds.Close)
		specs[s].Addrs = []string{ds.URL}
		hosts[s] = strings.TrimPrefix(ds.URL, "http://")
	}
	co, err := repro.NewCoordinator(context.Background(), specs,
		repro.WithHealthInterval(0), repro.WithTransport(faultTransport{fault: fault}))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(func() { co.Close() })
	return co, hosts
}

// readSnapshot records a fixed set of coordinator reads, to compare the
// read path before and after the write path is poisoned.
func readSnapshot(t *testing.T, co *repro.Coordinator) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	for _, qid := range []int{0, 5, 17, 33, 59} {
		ids, err := co.ReverseKNNContext(ctx, qid, 5)
		fmt.Fprintf(&b, "rknn(%d)=%v err=%v\n", qid, ids, err)
	}
	ids, err := co.ReverseKNNPointContext(ctx, []float64{0.3, 0.6, 0.2}, 4)
	fmt.Fprintf(&b, "rknn(point)=%v err=%v\n", ids, err)
	nn, err := co.KNNContext(ctx, []float64{0.5, 0.5, 0.5}, 6)
	fmt.Fprintf(&b, "knn=%v err=%v\n", nn, err)
	batch, err := co.BatchReverseKNNContext(ctx, []int{1, 2, 3}, 5, 2)
	fmt.Fprintf(&b, "batch=%v err=%v\n", batch, err)
	return b.String()
}

// assertWritesRefused checks that insert, insert batch and delete through
// the coordinator are all refused as disabled.
func assertWritesRefused(t *testing.T, co *repro.Coordinator) {
	t.Helper()
	ctx := context.Background()
	if _, err := co.InsertContext(ctx, []float64{0.2, 0.2, 0.2}); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Errorf("insert after poisoning: err = %v, want a disabled write path", err)
	}
	if _, err := co.InsertBatchContext(ctx, [][]float64{{0.1, 0.1, 0.1}, {0.9, 0.9, 0.9}}); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Errorf("insert batch after poisoning: err = %v, want a disabled write path", err)
	}
	if _, err := co.DeleteContext(ctx, 4); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Errorf("delete after poisoning: err = %v, want a disabled write path", err)
	}
}

// TestCoordinatorLocalIDMismatchPoisonsWrites makes the daemon owning the
// next global ID acknowledge an insert under a local ID the shard map does
// not predict, without applying it. The insert fails, every later write is
// refused, and reads answer exactly as they did before.
func TestCoordinatorLocalIDMismatchPoisonsWrites(t *testing.T) {
	const n, S = 60, 3
	pts := indextest.RandPoints(n, 3, 71)
	var victim string
	co, hosts := startFaultCluster(t, pts, S, func(req *http.Request) *http.Response {
		if req.Method == http.MethodPost && req.URL.Path == "/v1/points" && req.URL.Host == victim {
			return jsonResponse(req, http.StatusCreated, `{"id":9999}`)
		}
		return nil
	})
	victim = hosts[index.ShardOf(n, S)]
	before := readSnapshot(t, co)

	_, err := co.InsertContext(context.Background(), []float64{0.1, 0.4, 0.7})
	if err == nil || !strings.Contains(err.Error(), "local id") {
		t.Fatalf("mismatched insert: err = %v, want a local-id mismatch", err)
	}
	assertWritesRefused(t, co)
	if after := readSnapshot(t, co); after != before {
		t.Errorf("reads changed after poisoning:\n%s\nvs before\n%s", after, before)
	}
}

// TestCoordinatorBatchShardFailurePoisonsWrites fails shard 1's group of
// a batch insert that spans every shard: the batch errors and the write
// path is disabled afterwards.
func TestCoordinatorBatchShardFailurePoisonsWrites(t *testing.T) {
	pts := indextest.RandPoints(60, 3, 73)
	var victim string
	co, hosts := startFaultCluster(t, pts, 3, func(req *http.Request) *http.Response {
		if req.Method == http.MethodPost && req.URL.Path == "/v1/points/batch" && req.URL.Host == victim {
			return jsonResponse(req, http.StatusServiceUnavailable, `{"error":"injected batch failure"}`)
		}
		return nil
	})
	victim = hosts[1]
	batch := indextest.RandPoints(9, 3, 74)
	if _, err := co.InsertBatchContext(context.Background(), batch); err == nil {
		t.Fatal("batch with a failing shard group succeeded")
	}
	assertWritesRefused(t, co)
}
