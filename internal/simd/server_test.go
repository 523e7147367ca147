package simd

// The service battery: end-to-end over httptest, designed to run
// under -race. The core test drives two tenants through the full
// workflow — create fat-tree clusters, run overlapping Allreduce
// sweeps concurrently, follow SSE progress, fetch results — and
// asserts the service tables are bit-identical to direct figures
// calls. The rest covers quota 429s, graceful drain, SSE monotonic
// delivery, and the 4xx surface for invalid input.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"omxsim/figures"
	"omxsim/metrics"
	"omxsim/runner"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Pool == nil {
		// A private pool per test: the shared default pool's cache
		// would leak state between tests that count cache hits.
		cfg.Pool = runner.New(runner.Options{Workers: 4, Cache: runner.NewCache()})
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: unmarshal %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// fatTreeSpec is the battery's 8-host fat tree.
func fatTreeSpec() TopologySpec {
	return TopologySpec{
		Hosts:  []HostSetSpec{{Name: "node", N: 8, Indexed: true}},
		Wiring: WiringSpec{Kind: "fattree", LeafRadix: 4, Spines: 2},
	}
}

// sweepSpec is the battery's Allreduce sweep over both stacks.
func sweepSpec(clusterName string) JobSpec {
	return JobSpec{
		Cluster: clusterName,
		Test:    "allreduce", // canonicalized to "Allreduce" by submit
		Sizes:   []int{0, 1024, 16384},
		Iters:   4,
		Stacks: []StackSpec{
			{Kind: "openmx", IOAT: true, RegCache: true},
			{Kind: "openmx", RegCache: true},
		},
	}
}

// waitJob polls until the job leaves the running state.
func waitJob(t *testing.T, base, tenant, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := doJSON(t, "GET", base+"/v1/tenants/"+tenant+"/jobs/"+id, nil, &st); code != 200 {
			t.Fatalf("job status: %d", code)
		}
		if st.State != StateRunning {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s/%s did not finish", tenant, id)
	return JobStatus{}
}

// sseEvents streams the job's event feed to its terminal event.
func sseEvents(t *testing.T, base, tenant, id string) []JobEvent {
	t.Helper()
	resp, err := http.Get(base + "/v1/tenants/" + tenant + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("sse get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("sse status: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("sse content-type: %q", ct)
	}
	var events []JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev JobEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("sse data %q: %v", data, err)
			}
			events = append(events, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("sse scan: %v", err)
	}
	return events
}

// expectedSweepTable reproduces the service result with direct
// figures calls over the same specs.
func expectedSweepTable(t *testing.T, topo TopologySpec, spec JobSpec, canonTest string) *metrics.Table {
	t.Helper()
	spec.Test = canonTest
	if spec.PPN == 0 {
		spec.PPN = 1
	}
	points := make([]PointResult, len(spec.Stacks))
	for i, st := range spec.Stacks {
		fs, err := st.stack()
		if err != nil {
			t.Fatalf("stack: %v", err)
		}
		top, err := topo.topology()
		if err != nil {
			t.Fatalf("topology: %v", err)
		}
		res, c, err := figures.SweepOn(top, fs, spec.PPN, spec.Test, spec.Sizes, itersFunc(spec.Iters))
		if err != nil {
			t.Fatalf("SweepOn: %v", err)
		}
		c.Close()
		points[i] = PointResult{
			Stack:   st,
			Label:   fmt.Sprintf("sweep/%s/%s", spec.Test, fs.Name()),
			Results: res,
		}
	}
	return sweepTable(spec, points)
}

// TestServiceSweepMatchesFigures is the acceptance e2e: two tenants
// build fat-tree clusters and run the same Allreduce sweep
// concurrently; progress streams over SSE; both results are
// bit-identical to direct figures calls (and to each other — the
// overlap shares one cached simulation). A third tenant's invalid
// topology gets a 400 and the daemon keeps serving.
func TestServiceSweepMatchesFigures(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	type tenantRun struct {
		tenant, clusterName, jobID string
		events                     []JobEvent
		result                     JobResult
	}
	runs := []*tenantRun{
		{tenant: "alice", clusterName: "ft8"},
		{tenant: "bob", clusterName: "fabric"},
	}
	for _, tr := range runs {
		var rec clusterRec
		code := doJSON(t, "POST", base+"/v1/tenants/"+tr.tenant+"/clusters",
			clusterCreateReq{Name: tr.clusterName, Topology: fatTreeSpec()}, &rec)
		if code != http.StatusCreated {
			t.Fatalf("%s: cluster create: %d", tr.tenant, code)
		}
		if rec.Hosts != 8 || rec.NICs != 8 || rec.Switches != 4 {
			t.Fatalf("%s: cluster counts = %d hosts, %d NICs, %d switches", tr.tenant, rec.Hosts, rec.NICs, rec.Switches)
		}
	}

	// Submit both sweeps, then stream both SSE feeds concurrently
	// while the jobs overlap on the shared pool.
	var wg sync.WaitGroup
	for _, tr := range runs {
		var st JobStatus
		code := doJSON(t, "POST", base+"/v1/tenants/"+tr.tenant+"/jobs", sweepSpec(tr.clusterName), &st)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit: %d", tr.tenant, code)
		}
		if st.Spec.Test != "Allreduce" {
			t.Fatalf("%s: test not canonicalized: %q", tr.tenant, st.Spec.Test)
		}
		tr.jobID = st.ID
		wg.Add(1)
		go func(tr *tenantRun) {
			defer wg.Done()
			tr.events = sseEvents(t, base, tr.tenant, tr.jobID)
		}(tr)
	}
	wg.Wait()

	for _, tr := range runs {
		// SSE: strictly increasing seq, progress then exactly one
		// terminal done event with done == total.
		if len(tr.events) == 0 {
			t.Fatalf("%s: no SSE events", tr.tenant)
		}
		last := 0
		for _, ev := range tr.events {
			if ev.Seq <= last {
				t.Fatalf("%s: SSE seq not monotonic: %d after %d", tr.tenant, ev.Seq, last)
			}
			last = ev.Seq
		}
		term := tr.events[len(tr.events)-1]
		if term.Type != StateDone || term.Done != term.Total || term.Total != 2 {
			t.Fatalf("%s: terminal event = %+v", tr.tenant, term)
		}
		for _, ev := range tr.events[:len(tr.events)-1] {
			if ev.Type != "progress" {
				t.Fatalf("%s: non-progress event before terminal: %+v", tr.tenant, ev)
			}
		}

		st := waitJob(t, base, tr.tenant, tr.jobID)
		if st.State != StateDone {
			t.Fatalf("%s: job state %q (%s)", tr.tenant, st.State, st.Error)
		}
		if code := doJSON(t, "GET", base+"/v1/tenants/"+tr.tenant+"/jobs/"+tr.jobID+"/result", nil, &tr.result); code != 200 {
			t.Fatalf("%s: result: %d", tr.tenant, code)
		}
		if len(tr.result.Points) != 2 || tr.result.Table == nil {
			t.Fatalf("%s: result shape: %d points, table=%v", tr.tenant, len(tr.result.Points), tr.result.Table)
		}
		for _, p := range tr.result.Points {
			if len(p.Net.Hosts) != 8 || len(p.CPU) != 8 {
				t.Fatalf("%s: snapshot shape: %d net hosts, %d cpu hosts", tr.tenant, len(p.Net.Hosts), len(p.CPU))
			}
		}
	}

	// Bit-identical to the direct figures path, through JSON: float64
	// survives the JSON round trip exactly, so Table.Equal on the
	// decoded table is a bitwise check.
	want := expectedSweepTable(t, fatTreeSpec(), sweepSpec("ft8"), "Allreduce")
	if !runs[0].result.Table.Equal(want) {
		t.Errorf("alice's service table differs from the direct figures sweep\nservice: %s\ndirect:  %s",
			runs[0].result.Table.Render(), want.Render())
	}
	wantBob := expectedSweepTable(t, fatTreeSpec(), sweepSpec("fabric"), "Allreduce")
	if !runs[1].result.Table.Equal(wantBob) {
		t.Errorf("bob's service table differs from the direct figures sweep")
	}
	for i := range runs[0].result.Points {
		a, b := runs[0].result.Points[i], runs[1].result.Points[i]
		if len(a.Results) != len(b.Results) {
			t.Fatalf("tenants diverge: %d vs %d results", len(a.Results), len(b.Results))
		}
		for k := range a.Results {
			if a.Results[k] != b.Results[k] {
				t.Errorf("tenants diverge at point %d result %d: %+v vs %+v", i, k, a.Results[k], b.Results[k])
			}
		}
	}
	// The second tenant's identical sweep must have come from the
	// cache (single-flight or replay — either way, marked cached).
	cachedPoints := 0
	for _, tr := range runs {
		for _, p := range tr.result.Points {
			if p.Cached {
				cachedPoints++
			}
		}
	}
	if cachedPoints < 2 {
		t.Errorf("expected at least one tenant's points to be cache hits, got %d of 4", cachedPoints)
	}

	// Third tenant: invalid topology → 400, and the daemon still
	// serves.
	bad := TopologySpec{
		Hosts:  []HostSetSpec{{Name: "n", N: 3, Indexed: true}},
		Wiring: WiringSpec{Kind: "backtoback"},
	}
	var apiErr apiError
	if code := doJSON(t, "POST", base+"/v1/tenants/mallory/clusters",
		clusterCreateReq{Name: "bad", Topology: bad}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("invalid topology: got %d, want 400", code)
	}
	if !strings.Contains(apiErr.Error.Message, "BackToBack") {
		t.Errorf("error message %q does not name the invariant", apiErr.Error.Message)
	}
	var health map[string]any
	if code := doJSON(t, "GET", base+"/healthz", nil, &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz after 400: %d %v", code, health)
	}
}

// TestFigureJobMatchesSection: a figure-kind job returns exactly the
// section's rendered text.
func TestFigureJobMatchesSection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL
	var st JobStatus
	if code := doJSON(t, "POST", base+"/v1/tenants/alice/jobs", JobSpec{Kind: "figure", Figure: "micro"}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	fin := waitJob(t, base, "alice", st.ID)
	if fin.State != StateDone {
		t.Fatalf("state %q (%s)", fin.State, fin.Error)
	}
	var res JobResult
	if code := doJSON(t, "GET", base+"/v1/tenants/alice/jobs/"+st.ID+"/result", nil, &res); code != 200 {
		t.Fatalf("result: %d", code)
	}
	sec, _ := figures.SectionByName("micro")
	if want := sec.Render(false); res.Figure != want {
		t.Errorf("figure text differs:\nservice: %q\ndirect:  %q", res.Figure, want)
	}
}

// TestQuota: with quota 1, a second concurrent job gets 429; after
// the first finishes, submission works again.
func TestQuota(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Quota: 1})
	s.testJobGate = func() { <-gate }
	base := ts.URL

	spec := JobSpec{Kind: "figure", Figure: "micro"}
	var st JobStatus
	if code := doJSON(t, "POST", base+"/v1/tenants/alice/jobs", spec, &st); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	var apiErr apiError
	if code := doJSON(t, "POST", base+"/v1/tenants/alice/jobs", spec, &apiErr); code != http.StatusTooManyRequests {
		t.Fatalf("second submit: got %d, want 429", code)
	}
	if !strings.Contains(apiErr.Error.Message, "quota") {
		t.Errorf("429 message %q does not mention the quota", apiErr.Error.Message)
	}
	// Another tenant is not affected by alice's quota.
	var st2 JobStatus
	if code := doJSON(t, "POST", base+"/v1/tenants/bob/jobs", spec, &st2); code != http.StatusAccepted {
		t.Fatalf("bob's submit: %d", code)
	}
	// A result request while running is a 409.
	if code := doJSON(t, "GET", base+"/v1/tenants/alice/jobs/"+st.ID+"/result", nil, nil); code != http.StatusConflict {
		t.Fatalf("result while running: got %d, want 409", code)
	}
	close(gate)
	waitJob(t, base, "alice", st.ID)
	waitJob(t, base, "bob", st2.ID)
	if code := doJSON(t, "POST", base+"/v1/tenants/alice/jobs", spec, nil); code != http.StatusAccepted {
		t.Fatalf("submit after quota freed: %d", code)
	}
}

// TestGracefulDrain: Shutdown refuses new jobs with 503, waits for
// the in-flight job, and its result stays fetchable afterwards.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s, ts := newTestServer(t, Config{})
	s.testJobGate = func() { started <- struct{}{}; <-gate }
	base := ts.URL

	spec := JobSpec{Kind: "figure", Figure: "micro"}
	var st JobStatus
	if code := doJSON(t, "POST", base+"/v1/tenants/alice/jobs", spec, &st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	<-started // the job is running and parked on the gate

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(ctx) }()

	// Drain starts immediately, so a new submission is refused.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code := doJSON(t, "POST", base+"/v1/tenants/bob/jobs", spec, nil)
		if code == http.StatusServiceUnavailable {
			break
		}
		if code != http.StatusAccepted || time.Now().After(deadline) {
			t.Fatalf("submit during drain: got %d, want eventually 503", code)
		}
		// A 202 means drain had not started yet; the extra job also
		// parks on the gate and drains with the rest.
		time.Sleep(5 * time.Millisecond)
		<-started
	}

	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	fin := waitJob(t, base, "alice", st.ID)
	if fin.State != StateDone {
		t.Fatalf("after drain: state %q (%s)", fin.State, fin.Error)
	}
	if code := doJSON(t, "GET", base+"/v1/tenants/alice/jobs/"+st.ID+"/result", nil, nil); code != 200 {
		t.Fatalf("result after drain: %d", code)
	}
}

// TestInvalidInputs covers the 4xx surface.
func TestInvalidInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL
	// A valid cluster to hang job-spec failures off.
	if code := doJSON(t, "POST", base+"/v1/tenants/alice/clusters",
		clusterCreateReq{Name: "ok", Topology: fatTreeSpec()}, nil); code != http.StatusCreated {
		t.Fatalf("setup cluster: %d", code)
	}
	sweep := func(mut func(*JobSpec)) JobSpec {
		s := sweepSpec("ok")
		mut(&s)
		return s
	}
	cases := []struct {
		name string
		do   func() int
		want int
	}{
		{"duplicate cluster", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/clusters",
				clusterCreateReq{Name: "ok", Topology: fatTreeSpec()}, nil)
		}, http.StatusConflict},
		{"backtoback host count", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/clusters", clusterCreateReq{Name: "b", Topology: TopologySpec{
				Hosts:  []HostSetSpec{{Name: "n", N: 3, Indexed: true}},
				Wiring: WiringSpec{Kind: "backtoback"},
			}}, nil)
		}, http.StatusBadRequest},
		{"fattree zero spines", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/clusters", clusterCreateReq{Name: "b", Topology: TopologySpec{
				Hosts:  []HostSetSpec{{Name: "n", N: 4, Indexed: true}},
				Wiring: WiringSpec{Kind: "fattree", LeafRadix: 2},
			}}, nil)
		}, http.StatusBadRequest},
		{"negative NIC count", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/clusters", clusterCreateReq{Name: "b", Topology: TopologySpec{
				Hosts:  []HostSetSpec{{Name: "n", N: 2, Indexed: true, NICs: -1}},
				Wiring: WiringSpec{Kind: "backtoback"},
			}}, nil)
		}, http.StatusBadRequest},
		{"unknown wiring kind", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/clusters", clusterCreateReq{Name: "b", Topology: TopologySpec{
				Hosts:  []HostSetSpec{{Name: "n", N: 2, Indexed: true}},
				Wiring: WiringSpec{Kind: "torus"},
			}}, nil)
		}, http.StatusBadRequest},
		{"bad cluster name", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/clusters",
				clusterCreateReq{Name: "no/slash", Topology: fatTreeSpec()}, nil)
		}, http.StatusBadRequest},
		{"bad tenant name", func() int {
			return doJSON(t, "GET", base+"/v1/tenants/no%20space/clusters", nil, nil)
		}, http.StatusBadRequest},
		{"unknown cluster", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/jobs", sweep(func(s *JobSpec) { s.Cluster = "ghost" }), nil)
		}, http.StatusNotFound},
		{"unknown test", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/jobs", sweep(func(s *JobSpec) { s.Test = "warp" }), nil)
		}, http.StatusBadRequest},
		{"no sizes", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/jobs", sweep(func(s *JobSpec) { s.Sizes = nil }), nil)
		}, http.StatusBadRequest},
		{"negative size", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/jobs", sweep(func(s *JobSpec) { s.Sizes = []int{-1} }), nil)
		}, http.StatusBadRequest},
		{"ppn out of range", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/jobs", sweep(func(s *JobSpec) { s.PPN = 99 }), nil)
		}, http.StatusBadRequest},
		{"no stacks", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/jobs", sweep(func(s *JobSpec) { s.Stacks = nil }), nil)
		}, http.StatusBadRequest},
		{"unknown stack kind", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/jobs", sweep(func(s *JobSpec) { s.Stacks = []StackSpec{{Kind: "tcp"}} }), nil)
		}, http.StatusBadRequest},
		{"unknown figure", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/jobs", JobSpec{Kind: "figure", Figure: "fig99"}, nil)
		}, http.StatusBadRequest},
		{"unknown job kind", func() int {
			return doJSON(t, "POST", base+"/v1/tenants/alice/jobs", JobSpec{Kind: "quantum"}, nil)
		}, http.StatusBadRequest},
		{"unknown job", func() int {
			return doJSON(t, "GET", base+"/v1/tenants/alice/jobs/job-999999", nil, nil)
		}, http.StatusNotFound},
		{"other tenant's cluster invisible", func() int {
			return doJSON(t, "GET", base+"/v1/tenants/carol/clusters/ok", nil, nil)
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		if got := tc.do(); got != tc.want {
			t.Errorf("%s: got %d, want %d", tc.name, got, tc.want)
		}
	}
	// And the service still works after all of that.
	if code := doJSON(t, "GET", base+"/healthz", nil, nil); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
}

// TestClusterLifecycle: list, get, delete, and request-ID headers.
func TestClusterLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL
	if code := doJSON(t, "POST", base+"/v1/tenants/alice/clusters",
		clusterCreateReq{Name: "a", Topology: fatTreeSpec()}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var list []clusterRec
	if code := doJSON(t, "GET", base+"/v1/tenants/alice/clusters", nil, &list); code != 200 || len(list) != 1 {
		t.Fatalf("list: %d, %d clusters", code, len(list))
	}
	resp1, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp1.Body.Close()
	resp2, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	id1, id2 := resp1.Header.Get("X-Request-ID"), resp2.Header.Get("X-Request-ID")
	if id1 == "" || id1 == id2 {
		t.Errorf("request IDs not unique: %q, %q", id1, id2)
	}
	req, _ := http.NewRequest("DELETE", base+"/v1/tenants/alice/clusters/a", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if code := doJSON(t, "GET", base+"/v1/tenants/alice/clusters/a", nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", code)
	}
}
