package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"omxsim/cluster"
	"omxsim/internal/core"
	"omxsim/mpi"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/sim"
)

// stackDef is one protocol-stack configuration a job runs over.
type stackDef struct {
	name string
	omx  openmx.Config
	// mx, when non-nil, selects the native MXoE stack instead.
	mx *mxoe.Config
	// offload pins mpi.Tuning.Offload ("" keeps the default).
	offload string
}

// spec is one generated job input. Every field derives from the
// workload seed; the job itself receives nothing else.
type spec struct {
	idx     int
	stack   stackDef
	op      string  // collective (coll-fattree only)
	size    int     // message or collective payload bytes
	iters   int     // round trips or collectives per job
	loss    float64 // frame-loss probability (lossy-adaptive only)
	impSeed int64   // impairment stream seed (lossy-adaptive only)
	patOff  int     // offset of the job's payloads in the pattern block
	svc     *svcJob // service-sweeps only
}

// label names the job's configuration in failure reports.
func (s spec) label() string {
	if s.svc != nil {
		return s.svc.job.Test + " sweep on " + s.svc.job.Cluster
	}
	return fmt.Sprintf("%s %s %d B", s.stack.name, s.op, s.size)
}

// rankCores mirrors the figures' block placement: ranks on cores 2
// and 4 (distinct L2 domains and sockets).
var rankCores = []int{2, 4}

// patSpan is the range of payload offsets into the shared pattern
// block, so consecutive messages carry different bytes and a stale
// buffer fails the check.
const patSpan = 64 << 10

// jobCtx carries one job's inputs and accumulates its result. Its
// methods run inside simulated processes, which one engine runs one
// at a time, so they need no locking.
type jobCtx struct {
	s        spec
	pat      []byte // read-only pattern block shared by all jobs
	traced   bool
	corrupt  bool // self-test hook: flip a received byte before checking
	env      *svcEnv
	closing  bool
	heapMark uint64 // heap allocation counter at the current phase's start
	res      jobResult
}

// msg returns the expected payload of the job's k-th message.
func (j *jobCtx) msg(k, n int) []byte {
	off := (j.s.patOff + k*7919) % patSpan
	return j.pat[off : off+n]
}

// fill writes a payload into a send buffer, charged to verification.
func (j *jobCtx) fill(b *cluster.Buffer, src []byte) {
	t := time.Now()
	copy(b.Bytes(), src)
	j.verified(t)
}

// check compares delivered bytes with the expected payload and fails
// the job on the first mismatch.
func (j *jobCtx) check(got, want []byte, what string) {
	t := time.Now()
	if j.corrupt && len(got) > 0 {
		got[len(got)/2] ^= 0x5a
	}
	if !bytes.Equal(got, want) {
		j.fail("payload mismatch: " + what)
	}
	j.verified(t)
}

// Local span indices every traced job reserves; further spans follow.
const (
	jobSpan = iota
	setupSpan
	runSpan
)

// span records a host-time span under the given local parent (traced
// jobs only).
func (j *jobCtx) span(name string, parent int, start, end time.Time) {
	if j.traced {
		j.res.spans = append(j.res.spans, hspan{name: name, parent: parent, start: start, end: end})
	}
}

// setUp closes the setup phase that began at t.
func (j *jobCtx) setUp(t time.Time) {
	now := time.Now()
	j.res.setup = now.Sub(t)
	if j.traced {
		j.res.spans[setupSpan] = hspan{name: "setup", parent: jobSpan, start: t, end: now}
		h := heapAllocBytes()
		j.res.heapSetup, j.heapMark = h-j.heapMark, h
	}
}

// ran closes the run phase that began at t.
func (j *jobCtx) ran(t time.Time) {
	now := time.Now()
	j.res.run = now.Sub(t)
	if j.traced {
		j.res.spans[runSpan] = hspan{name: "run", parent: jobSpan, start: t, end: now}
		j.res.heapRun = heapAllocBytes() - j.heapMark
	}
}

// verified charges the harness work since t to verification.
func (j *jobCtx) verified(t time.Time) {
	now := time.Now()
	j.res.verify += now.Sub(t)
	j.span("verify", runSpan, t, now)
}

// spawn starts one simulated process per rank. A panic in a rank
// fails the job (its peers then show as blocked or undelivered);
// panics raised while the job tears its world down are the engine's
// own unwinding and pass through.
func (j *jobCtx) spawn(tb *testbed, body func(r *mpi.Rank)) {
	tb.w.Spawn(func(r *mpi.Rank) {
		defer func() {
			if v := recover(); v != nil {
				if j.closing {
					panic(v)
				}
				j.fail(fmt.Sprintf("rank %d panicked: %v", r.ID, v))
			}
		}()
		body(r)
	})
}

// teardown aborts the world's remaining processes.
func (j *jobCtx) teardown(tb *testbed) {
	j.closing = true
	tb.c.Close()
}

// traceSink accumulates the receive-path span kinds a traced stack
// emits (simulated time).
func (j *jobCtx) traceSink(ev core.TraceEvent) {
	switch ev.Kind {
	case "process", "memcpy", "submit", "dma-copy", "wait", "notify":
		if j.res.kinds == nil {
			j.res.kinds = make(map[string]sim.Duration)
		}
		j.res.kinds[ev.Kind] += ev.End - ev.Start
	}
}

// testbed is one job's simulated world.
type testbed struct {
	c   *cluster.Cluster
	w   *mpi.World
	omx []*openmx.Stack
	mx  []*mxoe.Stack
}

// build materializes a topology, attaches the stack to every host and
// opens ppn ranks per host, timing the cluster build and the stack
// attach/open separately.
func (j *jobCtx) build(top cluster.Topology, ppn int) *testbed {
	t0 := time.Now()
	c := cluster.Build(top)
	t1 := time.Now()
	tb := &testbed{c: c, w: mpi.NewWorld(c)}
	if j.s.stack.offload != "" {
		tb.w.Tune.Offload = j.s.stack.offload
	}
	for _, h := range c.Hosts() {
		var tr openmx.Transport
		if cfg := j.s.stack.mx; cfg != nil {
			st := mxoe.Attach(h, *cfg)
			if j.traced {
				st.Inner().Trace = j.traceSink
			}
			tb.mx = append(tb.mx, st)
			tr = st
		} else {
			st := openmx.Attach(h, j.s.stack.omx)
			if j.traced {
				st.Inner().Trace = j.traceSink
			}
			tb.omx = append(tb.omx, st)
			tr = st
		}
		for slot := 0; slot < ppn; slot++ {
			tb.w.AddRank(tr.Open(slot, rankCores[slot]), h, rankCores[slot])
		}
	}
	j.res.build += t1.Sub(t0)
	j.res.open += time.Since(t1)
	return tb
}

// collect snapshots every deterministic counter once the job drained.
func (j *jobCtx) collect(tb *testbed) {
	netCounters(&j.res.cnt, tb.c.NetStats())
	stackCounters(&j.res.cnt, &j.res.cpu, tb.omx, tb.mx)
}

// drain runs the simulation to completion (or to deadline when
// positive) and fails the job if any rank did not finish. ends holds
// each rank's finish time; the job's simulated time is the latest.
func (j *jobCtx) drain(tb *testbed, ends []sim.Time, deadline sim.Duration) {
	if deadline > 0 {
		tb.c.RunFor(deadline)
	} else if blocked := tb.c.Run(); blocked != 0 {
		j.fail(fmt.Sprintf("%d ranks blocked", blocked))
	}
	for r, e := range ends {
		if e == 0 {
			j.fail(fmt.Sprintf("rank %d undelivered by the deadline", r))
		}
		j.res.simEnd = max(j.res.simEnd, sim.Duration(e))
	}
}

func (j *jobCtx) fail(msg string) {
	if j.res.err == "" {
		j.res.err = msg
	}
}

// twoHosts is the paper's back-to-back testbed, optionally impaired.
func twoHosts(opts ...cluster.NetOption) cluster.Topology {
	return cluster.Topology{
		Hosts:  []cluster.HostSet{{Name: "node", N: 2, Indexed: true}},
		Wiring: cluster.BackToBack{Opts: opts},
	}
}

// runPingPong runs s.iters verified round trips of s.size bytes
// between two ranks; lossy jobs impair the link and bound the run by
// a simulated deadline.
func (j *jobCtx) runPingPong() {
	s := j.s
	top := twoHosts()
	var deadline sim.Duration
	if s.loss > 0 {
		top = twoHosts(cluster.Impair(cluster.Impairment{Seed: s.impSeed, LossRate: s.loss}))
		deadline = lossDeadline
	}
	t0 := time.Now()
	tb := j.build(top, 1)
	defer j.teardown(tb)
	n := s.size
	sb := []*cluster.Buffer{tb.w.Rank(0).Host.Alloc(n), tb.w.Rank(1).Host.Alloc(n)}
	rb := []*cluster.Buffer{tb.w.Rank(0).Host.Alloc(n), tb.w.Rank(1).Host.Alloc(n)}
	j.setUp(t0)

	t1 := time.Now()
	ends := make([]sim.Time, 2)
	j.spawn(tb, func(r *mpi.Rank) {
		me := r.ID
		for it := 0; it < s.iters; it++ {
			ping, pong := j.msg(2*it, n), j.msg(2*it+1, n)
			if me == 0 {
				j.fill(sb[0], ping)
				r.Produce(sb[0])
				r.Send(1, it, sb[0], 0, n)
				r.Recv(1, it, rb[0], 0, n)
				j.check(rb[0].Bytes(), pong, "pong")
			} else {
				r.Recv(0, it, rb[1], 0, n)
				j.check(rb[1].Bytes(), ping, "ping")
				j.fill(sb[1], pong)
				r.Produce(sb[1])
				r.Send(0, it, sb[1], 0, n)
			}
		}
		ends[me] = r.Now()
	})
	j.drain(tb, ends, deadline)
	j.ran(t1)
	j.res.payload = int64(2 * s.iters * n)
	j.res.delivered = j.res.payload
	j.collect(tb)
}

// Fat-tree shape of the collective workload: the fattree figure's
// 16-port leaves with 4 spines, 32 nodes × 2 ranks.
const (
	ftNodes     = 32
	ftLeafRadix = 16
	ftSpines    = 4
	ftPpn       = 2
)

// runCollective runs s.iters verified collectives on the 64-rank
// fat-tree world. Allreduce contributions are small exact integers,
// so every combining order yields the same bytes.
func (j *jobCtx) runCollective() {
	s := j.s
	t0 := time.Now()
	tb := j.build(cluster.Topology{
		Hosts:  []cluster.HostSet{{Name: "node", N: ftNodes, Indexed: true}},
		Wiring: cluster.FatTree{LeafRadix: ftLeafRadix, Spines: ftSpines},
	}, ftPpn)
	defer j.teardown(tb)
	p, n := tb.w.Size(), s.size
	sb := make([]*cluster.Buffer, p)
	rb := make([]*cluster.Buffer, p)
	for r := range sb {
		h := tb.w.Rank(r).Host
		sb[r], rb[r] = h.Alloc(max(n, 8)), h.Alloc(max(n, 8))
	}
	j.setUp(t0)

	t1 := time.Now()
	var want [][]byte
	if s.op == "Allreduce" {
		tv := time.Now()
		base := 0.0
		for r := 0; r < p; r++ {
			base += float64(r % 31)
		}
		want = make([][]byte, s.iters)
		for it := range want {
			want[it] = make([]byte, n)
			for i := 0; i < n/8; i++ {
				v := base + float64(p*(i%17+it+1))
				binary.LittleEndian.PutUint64(want[it][i*8:], math.Float64bits(v))
			}
		}
		j.verified(tv)
	}
	ends := make([]sim.Time, p)
	j.spawn(tb, func(r *mpi.Rank) {
		for it := 0; it < s.iters; it++ {
			switch s.op {
			case "Barrier":
				r.Barrier()
			case "Allreduce":
				tv := time.Now()
				b := sb[r.ID].Bytes()
				for i := 0; i < n/8; i++ {
					v := float64(r.ID%31 + i%17 + it + 1)
					binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
				}
				j.verified(tv)
				r.Allreduce(sb[r.ID], rb[r.ID], n)
				j.check(rb[r.ID].Bytes()[:n], want[it], "allreduce")
			case "Bcast":
				root, msg := it%p, j.msg(it, n)
				if r.ID == root {
					j.fill(rb[r.ID], msg)
					r.Produce(rb[r.ID])
				}
				r.Bcast(root, rb[r.ID], 0, n)
				j.check(rb[r.ID].Bytes()[:n], msg, "bcast")
			}
		}
		ends[r.ID] = r.Now()
	})
	j.drain(tb, ends, 0)
	j.ran(t1)
	j.res.collOps = s.iters
	switch s.op {
	case "Allreduce":
		j.res.payload = int64(s.iters * p * n)
	case "Bcast":
		j.res.payload = int64(s.iters * (p - 1) * n)
	}
	j.res.delivered = j.res.payload
	j.collect(tb)
}

// logUniform draws an integer log-uniformly from [lo, hi).
func logUniform(rng *rand.Rand, lo, hi int) int {
	return int(math.Exp(math.Log(float64(lo)) + rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo)))))
}

// stratified builds one block of jobs: every stack meets every
// stratum once, in seeded order, so each block has the same mix and
// run-to-run totals do not hinge on one seed's draws.
func stratified(rng *rand.Rand, stacks []stackDef, strata int, draw func(rng *rand.Rand, k int) spec) []spec {
	var out []spec
	for _, st := range stacks {
		for k := 0; k < strata; k++ {
			s := draw(rng, k)
			s.stack = st
			s.patOff = rng.Intn(patSpan)
			out = append(out, s)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}
