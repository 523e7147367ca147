// Command perfbench is omxsim's benchmark. It drives the simulator
// from outside, through its public APIs, with a seeded closed-loop
// batch of independent simulation jobs, verifies every job, and
// prints end-to-end metrics (untraced) or per-layer metrics (traced).
//
//	bash perfbench/run.sh --workload pingpong-large --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}.
// The lines before it repeat every metric with its sample count.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"omxsim/internal/cpu"
	"omxsim/sim"
)

// jobResult is everything one job execution measured.
type jobResult struct {
	idx int
	err string // empty when the job verified
	// Host time: the whole job, its phases, and the harness's own
	// payload generation and checking (inside run).
	total, setup, run, verify time.Duration
	build, open               time.Duration // cluster build; stack attach and endpoint open
	heapSetup, heapRun        uint64        // heap bytes allocated per phase (traced runs)
	// Simulated outcome, deterministic per spec.
	simEnd    sim.Duration // simulated completion of the job's traffic
	payload   int64        // payload bytes the job simulated
	delivered int64        // payload bytes the job delivered, simulated or served from cache
	cpu       cpuLedger
	cnt       counters
	collOps   int
	kinds     map[string]sim.Duration // receive-path trace kinds (traced runs)
	// omxsimd request timings (service-sweeps).
	submit, queue, result time.Duration
	rejected              int
	spans                 []hspan
}

// sameSimulation reports whether two executions of one spec produced
// the same simulated outcome.
func sameSimulation(a, b jobResult) bool {
	return a.simEnd == b.simEnd && a.payload == b.payload && a.cpu == b.cpu && a.cnt == b.cnt
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for the span file; "" writes none
	corrupt  bool   // flip one received byte per check (self-test)
	prefix   int    // overrides the workload's deterministic prefix
}

type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

type report struct {
	attempted, failed int
	correct           bool
	errs              []string
	metrics           []metric
	// prefix holds the deterministic prefix's results in job order.
	prefix []jobResult
	inputs []spec
}

func (r *report) add(name string, v float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, v, unit, samples})
}

// execJob runs one job, converting a panic on the job's goroutine
// into a failure.
func execJob(wl workload, s spec, pat []byte, env *svcEnv, traced, corrupt bool) jobResult {
	j := &jobCtx{s: s, pat: pat, env: env, traced: traced, corrupt: corrupt}
	j.res.idx = s.idx
	if traced {
		j.res.spans = make([]hspan, runSpan+1)
		j.heapMark = heapAllocBytes()
	}
	start := time.Now()
	func() {
		defer func() {
			if v := recover(); v != nil {
				j.fail(fmt.Sprintf("panic: %v", v))
			}
		}()
		wl.run(j)
	}()
	end := time.Now()
	j.res.total = end.Sub(start)
	if traced {
		j.res.spans[jobSpan] = hspan{name: "job", parent: -1, start: start, end: end}
	}
	return j.res
}

// runBench runs one workload for o.seconds (and at least its
// deterministic prefix) and computes its metrics.
func runBench(o options) (*report, error) {
	wl, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	prefix := wl.prefix
	if o.prefix > 0 {
		prefix = o.prefix
	}
	workers := min(runtime.NumCPU(), 2)
	if o.trace || wl.service {
		// Traced runs use one worker, so heap and span attribution per
		// job is exact. The service workload has one client: omxsimd
		// keeps every job's record, so its memory grows with the job
		// count.
		workers = 1
	}

	// Harness setup, untimed: the job stream and the payload pattern.
	st := &stream{wl: wl, rng: rand.New(rand.NewSource(o.seed))}
	st.get(prefix - 1)
	pat := make([]byte, wl.maxSize+patSpan)
	rand.New(rand.NewSource(o.seed ^ 0x7a11)).Read(pat)
	var envs [2]*svcEnv // untraced, traced
	var envSetups []float64
	if wl.service {
		for i := range envs {
			if i == 0 || o.trace {
				e, times, err := setupService(min(runtime.NumCPU(), 2))
				if err != nil {
					return nil, err
				}
				defer e.close()
				envs[i] = e
				if i == 0 {
					envSetups = times
				}
			}
		}
	}

	var (
		mu           sync.Mutex
		base, traced []jobResult
		next         atomic.Int64
		wg           sync.WaitGroup
	)
	heap0, gc0 := heapAllocBytes(), gcCycles()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= prefix && !time.Now().Before(deadline) {
					return
				}
				s := st.get(i)
				b := execJob(wl, s, pat, envs[0], false, o.corrupt)
				var t jobResult
				if o.trace {
					t = execJob(wl, s, pat, envs[1], true, o.corrupt)
					if t.err == "" && b.err == "" && !sameSimulation(b, t) {
						t.err = "tracing changed the simulated outcome"
					}
				}
				mu.Lock()
				base = append(base, b)
				if o.trace {
					traced = append(traced, t)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	heapAlloc := heapAllocBytes() - heap0
	gcs := gcCycles() - gc0

	byIdx := func(rs []jobResult) {
		sort.Slice(rs, func(a, b int) bool { return rs[a].idx < rs[b].idx })
	}
	byIdx(base)
	byIdx(traced)
	rep := &report{prefix: base[:prefix], inputs: st.specs[:prefix]}
	for _, rs := range [][]jobResult{base, traced} {
		for _, r := range rs {
			rep.attempted++
			if r.err != "" {
				rep.failed++
				rep.errs = append(rep.errs, fmt.Sprintf("job %d (%s): %s", r.idx, st.specs[r.idx].label(), r.err))
			}
		}
	}
	rep.correct = rep.failed == 0

	if !o.trace {
		endToEnd(rep, base, prefix, elapsed, heapAlloc, envSetups)
		return rep, nil
	}
	mix := st.mix(prefix)
	perLayer(rep, base, traced, prefix, gcs, envs[0])
	rep.metrics = append(rep.metrics, runProbes(mix)...)
	if o.out != "" {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", wl.name, o.seed))
		if err := os.WriteFile(path, chromeSpans(traced, start), 0o644); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	return rep, nil
}

// sums aggregates the deterministic prefix.
type sums struct {
	simEnd  sim.Duration
	payload int64
	cpu     cpuLedger
	cnt     counters
	collOps int
}

func sumPrefix(rs []jobResult) sums {
	var s sums
	for _, r := range rs {
		s.simEnd += r.simEnd
		s.payload += r.payload
		s.cpu.add(r.cpu)
		s.cnt.add(r.cnt)
		s.collOps += r.collOps
	}
	return s
}

const mib = 1 << 20

// perMiB divides a simulated duration by a payload, in µs per MiB.
func perMiB(d sim.Duration, payload int64) float64 {
	if payload == 0 {
		return 0
	}
	return sim.Time(d).Micros() / (float64(payload) / mib)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the untraced run's metrics. setups, when given,
// replaces the per-job setup times (the service workload sets up its
// server, not a testbed per job).
func endToEnd(rep *report, rs []jobResult, prefix int, elapsed time.Duration, heapAlloc uint64, setups []float64) {
	var okJobs int
	var delivered int64
	var totals, jobSetups []float64
	for _, r := range rs {
		if r.err == "" {
			okJobs++
		}
		delivered += r.delivered
		totals = append(totals, ms(r.total))
		jobSetups = append(jobSetups, r.setup.Seconds())
	}
	if setups == nil {
		setups = jobSetups
	}
	n := len(rs)
	p := sumPrefix(rs[:prefix])
	rep.add("jobs_per_s", float64(okJobs)/elapsed.Seconds(), "jobs/s", okJobs)
	rep.add("job_ms_p50", quantile(totals, 0.5), "ms", n)
	rep.add("job_ms_p90", quantile(totals, 0.9), "ms", n)
	rep.add("setup_s", quantile(setups, 0.5), "s", len(setups))
	rep.add("peak_rss_mib", peakRSSMiB(), "MiB", 1)
	rep.add("alloc_mib_per_sim_mib", ratio(float64(heapAlloc), float64(delivered)), "MiB/MiB", n)
	rep.add("sim_s", sim.Time(p.simEnd).Seconds(), "sim-s", prefix)
	rep.add("sim_cpu_us_per_mib", perMiB(p.cpu.commCPU(), p.payload), "sim-us/MiB", prefix)
	rep.add("failed_frac", float64(rep.failed)/float64(rep.attempted), "fraction", rep.attempted)
}

func perLayer(rep *report, base, traced []jobResult, prefix int, gcs uint64, env *svcEnv) {
	p := sumPrefix(traced[:prefix])
	c := p.cnt
	n := len(base)
	var runSec, simUs, frames, verify, total float64
	var build, open float64
	var submit, queue, result []float64
	rejected := 0
	for _, r := range base {
		runSec += r.run.Seconds()
		simUs += sim.Time(r.simEnd).Micros()
		frames += float64(r.cnt[cWireFrames])
		verify += r.verify.Seconds()
		total += r.total.Seconds()
		build += ms(r.build)
		open += ms(r.open)
		rejected += r.rejected
		if r.submit > 0 {
			submit = append(submit, ms(r.submit))
			queue = append(queue, ms(r.queue))
			result = append(result, ms(r.result))
		}
	}
	var heapSetup, heapRun, tracedTotal float64
	for _, r := range traced {
		heapSetup += float64(r.heapSetup) / mib
		heapRun += float64(r.heapRun) / mib
		tracedTotal += r.total.Seconds()
	}
	rep.add("sim.us_per_s", ratio(simUs, runSec), "sim-us/s", n)
	rep.add("wire.frames", float64(c[cWireFrames]), "count", prefix)
	rep.add("wire.frames_per_s", ratio(frames, runSec), "frames/s", n)
	rep.add("wire.forwarded", float64(c[cForwarded]), "count", prefix)
	rep.add("wire.lost", float64(c[cLost]), "count", prefix)
	rep.add("wire.duped", float64(c[cDuped]), "count", prefix)
	rep.add("wire.tail_drops", float64(c[cTailDrops]), "count", prefix)
	rep.add("nic.rx_frames", float64(c[cNICRx]), "count", prefix)
	rep.add("nic.ring_drops", float64(c[cRingDrops]), "count", prefix)
	rep.add("heap.setup_mib", heapSetup/float64(len(traced)), "MiB", len(traced))
	rep.add("heap.run_mib", heapRun/float64(len(traced)), "MiB", len(traced))
	rep.add("heap.gc_cycles", float64(gcs), "count", 1)
	rep.add("regcache.hit_ratio", ratio(float64(c[cRegHits]), float64(c[cRegHits]+c[cRegMisses])), "ratio", prefix)
	rep.add("ioat.submits", float64(c[cIOATSubmits]), "count", prefix)
	rep.add("core.eager_sent", float64(c[cEager]), "count", prefix)
	rep.add("core.rndv_sent", float64(c[cRndv]), "count", prefix)
	rep.add("core.pulls_sent", float64(c[cPulls]), "count", prefix)
	rep.add("mxoe.frags_sent", float64(c[cMXFrags]), "count", prefix)
	rep.add("proto.retransmits", float64(c[cRetransmits]), "count", prefix)
	rep.add("proto.dup_frags", float64(c[cDupFrags]), "count", prefix)
	rep.add("proto.useful_ratio", ratio(float64(c[cNICRx]-c[cDupFrags]), float64(c[cWireFrames])), "ratio", prefix)
	for _, cat := range []struct {
		name string
		c    cpu.Category
	}{
		{"cpu.bh_copy_us", cpu.BHCopy}, {"cpu.bh_proc_us", cpu.BHProc}, {"cpu.ioat_submit_us", cpu.IOATSubmit},
		{"cpu.user_lib_us", cpu.UserLib}, {"cpu.driver_us", cpu.DriverCmd}, {"cpu.other_us", cpu.Other},
	} {
		rep.add(cat.name, perMiB(p.cpu[cat.c], p.payload), "sim-us/MiB", prefix)
	}
	rep.add("cluster.build_ms", build/float64(n), "ms", n)
	rep.add("stack.open_ms", open/float64(n), "ms", n)
	rep.add("mpi.coll_sim_us", ratio(sim.Time(p.simEnd).Micros(), float64(p.collOps)), "sim-us", p.collOps)
	hit := 0.0
	if env != nil {
		hit = env.cacheHitRatio()
	}
	rep.add("runner.cache_hit_ratio", hit, "ratio", n)
	rep.add("simd.submit_ms_p50", quantile(submit, 0.5), "ms", len(submit))
	rep.add("simd.queue_ms_p50", quantile(queue, 0.5), "ms", len(queue))
	rep.add("simd.result_ms_p50", quantile(result, 0.5), "ms", len(result))
	rep.add("simd.rejected", float64(rejected), "count", n)
	kinds := map[string]sim.Duration{}
	for _, r := range traced[:prefix] {
		for k, d := range r.kinds {
			kinds[k] += d
		}
	}
	for _, k := range []string{"process", "memcpy", "submit", "dma-copy", "wait", "notify"} {
		rep.add("trace."+k+"_self_us", perMiB(kinds[k], p.payload), "sim-us/MiB", prefix)
	}
	rep.add("trace.overhead_frac", ratio(tracedTotal, total)-1, "fraction", n)
	self := selfTimes(traced)
	for _, name := range []string{"job", "setup", "run", "verify"} {
		rep.add("trace."+name+"_self_ms", self[name]/float64(len(traced)), "ms", len(traced))
	}
	rep.add("harness.verify_frac", ratio(verify, total), "fraction", n)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 12, "measured run time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for the traced run's span file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	rep, err := runBench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for i, e := range rep.errs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(rep.errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]value{}}
	fmt.Printf("# %s seed=%d trace=%v attempted=%d failed=%d\n", o.workload, o.seed, o.trace, rep.attempted, rep.failed)
	for _, m := range rep.metrics {
		fmt.Printf("%-28s %16.6g %-12s n=%d\n", m.name, m.value, m.unit, m.samples)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			out.Correct = false
			m.value = 0
		}
		if m.name == "failed_frac" {
			continue // carried by the failed and attempted fields
		}
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}
