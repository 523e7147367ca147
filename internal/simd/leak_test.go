package simd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestFreshSweepsReleaseGoroutines drives cluster creation and fresh
// (uncached) sweeps straight through the handler — no sockets, so no
// connection goroutines — and requires the goroutine count to return
// to its baseline: every simulated cluster, the dry build that
// validates a POST /clusters included, must be closed once used.
func TestFreshSweepsReleaseGoroutines(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	call := func(method, path string, body, out any) int {
		t.Helper()
		var raw []byte
		if body != nil {
			var err error
			if raw, err = json.Marshal(body); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
		if out != nil {
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				t.Fatalf("%s %s: unmarshal %q: %v", method, path, rec.Body.Bytes(), err)
			}
		}
		return rec.Code
	}
	pair := TopologySpec{
		Hosts:  []HostSetSpec{{Name: "n", N: 2, Indexed: true}},
		Wiring: WiringSpec{Kind: "backtoback"},
	}
	// sweep creates a cluster and runs one sweep on it; size makes
	// each sweep's cache key fresh.
	sweep := func(i int) {
		t.Helper()
		name := fmt.Sprintf("c%d", i)
		if code := call("POST", "/v1/tenants/leak/clusters", clusterCreateReq{Name: name, Topology: pair}, nil); code != http.StatusCreated {
			t.Fatalf("cluster create: %d", code)
		}
		spec := JobSpec{
			Cluster: name, Test: "PingPong", Sizes: []int{64 + i}, Iters: 2,
			Stacks: []StackSpec{{Kind: "openmx"}},
		}
		var st JobStatus
		if code := call("POST", "/v1/tenants/leak/jobs", spec, &st); code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
		deadline := time.Now().Add(time.Minute)
		for st.State == StateRunning {
			if time.Now().After(deadline) {
				t.Fatalf("sweep %d did not finish", i)
			}
			time.Sleep(5 * time.Millisecond)
			call("GET", "/v1/tenants/leak/jobs/"+st.ID, nil, &st)
		}
		if st.State != StateDone {
			t.Fatalf("sweep %d: state %q (%s)", i, st.State, st.Error)
		}
	}
	// settled waits up to 5 s for the goroutine count to reach limit
	// (goroutines on their way out) or, with limit < 0, to hold still
	// for 100 ms.
	settled := func(limit int) int {
		deadline := time.Now().Add(5 * time.Second)
		last, still := -1, 0
		for {
			n := runtime.NumGoroutine()
			if n == last {
				still++
			} else {
				last, still = n, 0
			}
			if (limit >= 0 && n <= limit) || (limit < 0 && still == 10) || time.Now().After(deadline) {
				return n
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	sweep(0) // start the pool's workers and the server's own loops
	base := settled(-1)
	const fresh = 8
	for i := 1; i <= fresh; i++ {
		sweep(i)
	}
	if n := settled(base); n > base {
		t.Fatalf("%d goroutines after %d fresh sweeps, baseline %d: simulated clusters leaked", n, fresh, base)
	}
}
