package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"omxsim/internal/simd"
	"omxsim/runner"
	"omxsim/sim"
)

// svcJob is one generated omxsimd sweep.
type svcJob struct {
	key    string // identity of the spec, shared by its repeats
	job    simd.JobSpec
	repeat bool
}

// svcTenant is the API prefix of the benchmark's tenant.
const svcTenant = "/v1/tenants/bench"

// svcClusters are the tenant's named testbeds, created once per
// server: the paper's back-to-back pair and four hosts on a switch.
var svcClusters = map[string]simd.TopologySpec{
	"b2b": {
		Hosts:  []simd.HostSetSpec{{Name: "node", N: 2}},
		Wiring: simd.WiringSpec{Kind: "backtoback"},
	},
	"switch4": {
		Hosts:  []simd.HostSetSpec{{Name: "node", N: 4}},
		Wiring: simd.WiringSpec{Kind: "singleswitch"},
	},
}

// svcRepeats is how many jobs of each block repeat an earlier spec,
// next to one fresh sweep per IMB test; svcIters is every sweep's
// iteration count per size.
const (
	svcRepeats = 2
	svcIters   = 8
)

// svcUnique bounds the distinct sweeps a run submits; once that many
// exist, every further job repeats one of them. omxsimd keeps each
// simulated cluster alive after its sweep (figures.SweepOn never
// closes it: about 4 MB and two parked goroutines per two-host
// sweep), so unbounded fresh sweeps would grow without limit.
const svcUnique = 24

var svcTests = []string{"PingPong", "PingPing", "SendRecv", "Allreduce", "Bcast", "Barrier"}

// serviceBlock generates the service job stream. The first
// svcUnique/len(svcTests) blocks each hold one fresh sweep per IMB
// test plus svcRepeats repeats of sweeps generated so far; block b
// varies the fresh sweeps' shape the same way for every test, so the
// fresh mix is identical across seeds. Later blocks hold repeats
// only, so past the first blocks the cache serves every job.
func serviceBlock(rng *rand.Rand, prev []spec) []spec {
	var fresh []*svcJob
	for _, sp := range prev {
		if !sp.svc.repeat {
			fresh = append(fresh, sp.svc)
		}
	}
	repeat := func(pool []*svcJob) spec {
		rep := *pool[rng.Intn(len(pool))]
		rep.repeat = true
		return spec{svc: &rep}
	}
	if len(fresh) >= svcUnique {
		out := make([]spec, len(svcTests)+svcRepeats)
		for i := range out {
			out[i] = repeat(fresh)
		}
		return out
	}
	stacks := []simd.StackSpec{
		{Kind: "openmx", RegCache: true},
		{Kind: "openmx", IOAT: true, RegCache: true},
		{Kind: "mxoe", RegCache: true},
	}
	b := len(fresh) / len(svcTests)
	var out []spec
	for t, test := range svcTests {
		sj := &svcJob{job: simd.JobSpec{
			Kind: "sweep", Cluster: "b2b", Test: test, PPN: 1, Iters: svcIters,
			// One size in each of three half-octave strata, eager to
			// rendezvous.
			Sizes:  []int{logUniform(rng, 1<<10, 3<<9), logUniform(rng, 8<<10, 12<<10), logUniform(rng, 64<<10, 96<<10)},
			Stacks: []simd.StackSpec{stacks[(t+b)%len(stacks)]},
		}}
		if test != "PingPong" && test != "PingPing" {
			sj.job.PPN = 1 + b%2
			if b >= 2 {
				sj.job.Cluster = "switch4"
			}
		}
		key, _ := json.Marshal(sj.job)
		sj.key = string(key)
		out = append(out, spec{svc: sj})
		fresh = append(fresh, sj)
	}
	for i := 0; i < svcRepeats; i++ {
		out = append(out, repeat(fresh))
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// svcEnv is one run's in-process omxsimd: a private runner pool with
// a result cache behind a loopback HTTP server.
type svcEnv struct {
	srv    *httptest.Server
	pool   *runner.Pool
	client *http.Client

	mu    sync.Mutex
	first map[string][]byte // first completed result of each spec
}

// newSvcEnv starts a server whose pool runs workers simulations at
// once and creates the tenant's clusters.
func newSvcEnv(workers int) (*svcEnv, error) {
	pool := runner.New(runner.Options{Workers: workers, Cache: runner.NewCache()})
	s := simd.NewServer(simd.Config{
		Pool:   pool,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	srv := httptest.NewServer(s.Handler())
	tr := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	e := &svcEnv{srv: srv, pool: pool, client: &http.Client{Transport: tr}, first: map[string][]byte{}}
	for _, name := range []string{"b2b", "switch4"} {
		body := map[string]any{"name": name, "topology": svcClusters[name]}
		if _, err := e.do("POST", svcTenant+"/clusters", body, http.StatusCreated, nil); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// svcSetups is how many times a run sets the service up; the run
// keeps the last one and reports the median setup time.
const svcSetups = 21

// setupService sets the service up svcSetups times, keeping the last,
// and returns it with every setup's host seconds.
func setupService(workers int) (*svcEnv, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t := time.Now()
		e, err := newSvcEnv(workers)
		if err != nil {
			return nil, nil, fmt.Errorf("service setup: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		if i == svcSetups-1 {
			return e, times, nil
		}
		e.close()
	}
}

func (e *svcEnv) close() {
	e.client.CloseIdleConnections()
	e.srv.Close()
}

// cacheHitRatio is the pool cache's hits over lookups.
func (e *svcEnv) cacheHitRatio() float64 {
	hits, misses := e.pool.Cache().Stats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// do sends one request and decodes a JSON reply into out (when
// non-nil), failing unless the status is want.
func (e *svcEnv) do(method, path string, body any, want int, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.srv.URL+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != want {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return resp.StatusCode, json.Unmarshal(data, out)
	}
	return resp.StatusCode, nil
}

// awaitTerminal follows a job's SSE stream to its terminal event.
func (e *svcEnv) awaitTerminal(path string) (string, error) {
	resp, err := e.client.Get(e.srv.URL + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	state := ""
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok && ev != "progress" {
			state = ev
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return state, nil
}

// runService drives one sweep through the HTTP API as a closed-loop
// client: submit, follow the event stream, fetch and verify the
// result.
func (j *jobCtx) runService() {
	e, sj := j.env, j.s.svc
	span := func(what string, from time.Time) {
		j.span(what, runSpan, from, time.Now())
	}
	check := func(status int, err error) bool {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			j.res.rejected++
		}
		if err != nil {
			j.fail(err.Error())
			return false
		}
		return true
	}

	t1 := time.Now()
	js := sj.job
	var st simd.JobStatus
	if !check(e.do("POST", svcTenant+"/jobs", js, http.StatusAccepted, &st)) {
		return
	}
	t2 := time.Now()
	j.res.submit = t2.Sub(t1)
	span("simd.submit", t1)
	state, err := e.awaitTerminal(svcTenant + "/jobs/" + st.ID + "/events")
	t3 := time.Now()
	j.res.queue = t3.Sub(t2)
	span("simd.wait", t2)
	if err != nil || state != simd.StateDone {
		j.fail(fmt.Sprintf("job %s ended %q: %v", st.ID, state, err))
		return
	}
	var res simd.JobResult
	if !check(e.do("GET", svcTenant+"/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)) {
		return
	}
	j.res.result = time.Since(t3)
	span("simd.result", t3)

	tv := time.Now()
	j.verifySweep(sj, res)
	j.verified(tv)
	j.ran(t1)
}

// verifySweep checks a sweep result's shape and arithmetic, records
// its counters, and requires every repeat of a spec to return
// byte-identical points (the simulation is deterministic and the
// cache must not alter it).
func (j *jobCtx) verifySweep(sj *svcJob, res simd.JobResult) {
	if len(res.Points) != len(sj.job.Stacks) {
		j.fail(fmt.Sprintf("%d points for %d stacks", len(res.Points), len(sj.job.Stacks)))
		return
	}
	wantRows := len(sj.job.Sizes)
	if sj.job.Test == "Barrier" {
		wantRows = 1
	}
	factor := map[string]float64{"PingPong": 1, "PingPing": 1, "SendRecv": 2}[sj.job.Test]
	for i := range res.Points {
		pt := &res.Points[i]
		cached := pt.Cached
		pt.Cached = false
		if len(pt.Results) != wantRows {
			j.fail(fmt.Sprintf("point %d: %d rows, want %d", i, len(pt.Results), wantRows))
			return
		}
		for _, r := range pt.Results {
			if r.Test != sj.job.Test || !(r.TimeUsec > 0) || math.IsInf(r.TimeUsec, 0) {
				j.fail(fmt.Sprintf("point %d: bad row %+v", i, r))
				return
			}
			if factor > 0 {
				want := float64(r.Bytes) * factor / (1 << 20) / (r.TimeUsec / 1e6)
				if math.Abs(r.MiBps-want) > 1e-9*want {
					j.fail(fmt.Sprintf("point %d: %g MiB/s, want %g", i, r.MiBps, want))
					return
				}
			}
		}
		var cnt counters
		netCounters(&cnt, pt.Net)
		if cnt[cWireFrames] == 0 || len(pt.CPU) == 0 {
			j.fail(fmt.Sprintf("point %d: no traffic or CPU ledgers", i))
			return
		}
		j.res.delivered += cnt[cWireBytes]
		if cached {
			// Nothing was simulated for this point in this job.
			continue
		}
		j.res.cnt.add(cnt)
		var end sim.Duration
		for _, h := range pt.CPU {
			j.res.cpu.addStats(h.Stats)
			end = max(end, h.Stats.Window)
		}
		j.res.simEnd += end
	}
	j.res.payload = j.res.cnt[cWireBytes]
	canon, err := json.Marshal(res.Points)
	if err != nil {
		j.fail(err.Error())
		return
	}
	e := j.env
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, ok := e.first[sj.key]; !ok {
		e.first[sj.key] = canon
	} else if !bytes.Equal(prev, canon) {
		j.fail("repeated spec returned different points")
	}
}
