package main

import (
	"math/rand"
	"sort"
	"sync"

	"omxsim/internal/proto"
	"omxsim/mpi"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/sim"
)

// workload is one seeded job mix. Jobs are generated in stratified
// blocks; the first prefix jobs always run to completion, and their
// simulated results are the run's deterministic metrics.
type workload struct {
	name    string
	ranks   int // simulated ranks per simulation job (sizes the process-switch probe)
	maxSize int // largest generated payload (sizes the pattern block)
	prefix  int
	block   func(rng *rand.Rand, prev []spec) []spec
	run     func(j *jobCtx)
	// service workloads run against a per-run in-process omxsimd.
	service bool
}

// Per-job shape constants. Each job is small enough that a run holds
// well over 100 of them, so job_ms_p90 has at least ten samples above
// it.
const (
	ppIters   = 2 // round trips per pingpong-large job
	collIters = 2 // collectives per coll-fattree job
	lossIters = 3 // round trips per lossy-adaptive job
	// lossDeadline bounds a lossy job's simulated time; traffic not
	// delivered by then fails the job.
	lossDeadline = 30 * sim.Second
)

var workloads = []workload{
	{
		name: "pingpong-large", ranks: 2, maxSize: 4 << 20, prefix: 360,
		block: func(rng *rand.Rand, _ []spec) []spec {
			mx := mxoe.Config{RegCache: true}
			stacks := []stackDef{
				{name: "Open-MX", omx: openmx.Config{RegCache: true}},
				{name: "Open-MX I/OAT", omx: openmx.Config{RegCache: true, IOAT: true}},
				{name: "MX", mx: &mx},
			}
			// Four octave-wide strata over 256 kB–4 MB.
			return stratified(rng, stacks, 4, func(rng *rand.Rand, k int) spec {
				lo := 256 << 10 << k
				return spec{size: logUniform(rng, lo, 2*lo), iters: ppIters}
			})
		},
		run: (*jobCtx).runPingPong,
	},
	{
		name: "coll-fattree", ranks: ftNodes * ftPpn, maxSize: 4096, prefix: 210,
		block: func(rng *rand.Rand, _ []spec) []spec {
			mx := mxoe.Config{RegCache: true}
			stacks := []stackDef{
				{name: "Open-MX host", omx: openmx.Config{RegCache: true}, offload: mpi.OffloadHost},
				{name: "MX host", mx: &mx, offload: mpi.OffloadHost},
				{name: "MX NIC-offload", mx: &mx, offload: mpi.OffloadNIC},
			}
			// Barrier, then each data-carrying collective in three
			// payload strata: <256 B, 256 B-2 kB and 2-4 kB.
			ops := []string{"Barrier", "Allreduce", "Allreduce", "Allreduce", "Bcast", "Bcast", "Bcast"}
			edges := []int{1, 256, 2048, 4097}
			return stratified(rng, stacks, len(ops), func(rng *rand.Rand, k int) spec {
				s := spec{op: ops[k], iters: collIters}
				if k > 0 {
					stratum := (k - 1) % 3
					lo, hi := edges[stratum], edges[stratum+1]
					s.size = lo + rng.Intn(hi-lo)
					if s.op == "Allreduce" {
						s.size = max(8, s.size&^7) // whole float64 words
					}
				}
				return s
			})
		},
		run: (*jobCtx).runCollective,
	},
	{
		name: "lossy-adaptive", ranks: 2, maxSize: 256 << 10, prefix: 2700,
		block: func(rng *rand.Rand, _ []spec) []spec {
			mx := mxoe.Config{RegCache: true, Adaptive: true}
			stacks := []stackDef{
				{name: "Open-MX adaptive", omx: openmx.Config{RegCache: true, Adaptive: true}},
				{name: "Open-MX I/OAT adaptive", omx: openmx.Config{RegCache: true, IOAT: true, Adaptive: true}},
				{name: "MX adaptive", mx: &mx},
			}
			// Three two-octave size strata over 4–256 kB, each crossed
			// with three loss-rate strata over 1–5 %.
			return stratified(rng, stacks, 9, func(rng *rand.Rand, k int) spec {
				lo := 4 << 10 << (2 * (k / 3))
				return spec{
					size: logUniform(rng, lo, 4*lo), iters: lossIters,
					loss:    0.01 + 0.04*(float64(k%3)+rng.Float64())/3,
					impSeed: rng.Int63(),
				}
			})
		},
		run: (*jobCtx).runPingPong,
	},
	{
		name: "service-sweeps", prefix: 32, service: true,
		block: serviceBlock,
		run:   (*jobCtx).runService,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stream hands out the workload's seeded job sequence. Blocks are
// generated strictly in order whichever worker asks first, so job i
// is the same for a given seed however the workers interleave.
type stream struct {
	mu    sync.Mutex
	wl    workload
	rng   *rand.Rand
	specs []spec
}

func (s *stream) get(i int) spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.specs) <= i {
		for _, sp := range s.wl.block(s.rng, s.specs) {
			sp.idx = len(s.specs)
			s.specs = append(s.specs, sp)
		}
	}
	return s.specs[i]
}

// probeMix sizes the layer probes from the workload's own inputs.
type probeMix struct {
	ranks int // live processes per simulation
	size  int // median message size of the deterministic prefix
	frags int // pull fragments of a median message (≤64, one bitmap)
}

func (s *stream) mix(prefix int) probeMix {
	sizes := make([]int, 0, prefix)
	ranks := make([]int, 0, prefix)
	for i := 0; i < prefix; i++ {
		sp := s.get(i)
		n, r := sp.size, s.wl.ranks
		if sj := sp.svc; sj != nil {
			n = sj.job.Sizes[len(sj.job.Sizes)/2]
			r = svcClusters[sj.job.Cluster].Hosts[0].N * sj.job.PPN
		}
		sizes = append(sizes, n)
		ranks = append(ranks, r)
	}
	sort.Ints(sizes)
	sort.Ints(ranks)
	m := probeMix{ranks: ranks[len(ranks)/2], size: max(sizes[len(sizes)/2], 8)}
	m.frags = min(64, max(1, (m.size+proto.LargeFragSize-1)/proto.LargeFragSize))
	return m
}
