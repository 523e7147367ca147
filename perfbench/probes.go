package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"omxsim/internal/hostmem"
	"omxsim/internal/ioat"
	"omxsim/internal/memmodel"
	"omxsim/internal/proto"
	"omxsim/platform"
	"omxsim/runner"
	"omxsim/sim"
)

// probeBudget is the host time each layer probe repeats its operation
// for; ns/op is the mean over that window.
const probeBudget = 150 * time.Millisecond

// probeCore is the core the memory probes run on (the figures' rank
// core).
const probeCore = 2

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// measure repeats round (which performs ops operations) until the
// budget is spent and returns host ns and heap allocations per
// operation.
func measure(round func() (ops int)) (nsPerOp, allocsPerOp float64) {
	var ops int
	a0 := heapObjects()
	start := time.Now()
	for time.Since(start) < probeBudget {
		ops += round()
	}
	el := time.Since(start)
	return float64(el.Nanoseconds()) / float64(ops), float64(heapObjects()-a0) / float64(ops)
}

// runProbes times single-layer calls, each sized from the workload's
// own input mix.
func runProbes(m probeMix) []metric {
	var out []metric
	add := func(name string, v float64, unit string) {
		out = append(out, metric{name, v, unit, 1})
	}
	p := platform.Clovertown()
	kib := float64(m.size) / 1024

	// sim: a process handoff with as many live processes as the
	// workload has ranks, each sleeping in lock-step.
	const steps = 64
	ns, allocs := measure(func() int {
		e := sim.New()
		for r := 0; r < m.ranks; r++ {
			e.Go(fmt.Sprintf("rank%d", r), func(pr *sim.Proc) {
				for k := 0; k < steps; k++ {
					pr.Sleep(1)
				}
			})
		}
		e.Run()
		return m.ranks * (steps + 1)
	})
	add("sim.switch_ns", ns, "ns")
	add("sim.switch_allocs", allocs, "allocs")

	// sim: the Schedule→fire cycle behind one pending event per rank.
	const chain = 4096
	ns, allocs = measure(func() int {
		e := sim.New()
		for r := 0; r < m.ranks; r++ {
			e.Schedule(sim.Second, func() {})
		}
		left := chain
		var tick func()
		tick = func() {
			if left--; left > 0 {
				e.Schedule(sim.Microsecond, tick)
			}
		}
		e.Schedule(0, tick)
		e.Run()
		return chain + m.ranks
	})
	add("sim.event_ns", ns, "ns")
	add("sim.event_allocs", allocs, "allocs")

	// hostmem and memmodel at the workload's median message size.
	mem := hostmem.New(p)
	mm := memmodel.New(p)
	ns, _ = measure(func() int {
		mem.AllocOn(m.size, 0)
		return 1
	})
	add("hostmem.alloc_ns_per_kib", ns/kib, "ns/KiB")
	src, dst := mem.AllocOn(m.size, 0), mem.AllocOn(m.size, 0)
	ns, _ = measure(func() int {
		mm.Memcpy(dst, 0, src, 0, m.size, probeCore)
		return 1
	})
	add("hostmem.copy_ns_per_kib", ns/kib, "ns/KiB")
	ns, _ = measure(func() int {
		for i := 0; i < 64; i++ {
			src.Touch(probeCore, m.size)
		}
		return 64
	})
	add("hostmem.touch_ns", ns, "ns")
	var rate platform.Rate
	ns, _ = measure(func() int {
		for i := 0; i < 64; i++ {
			rate += mm.RateFor(dst, src, m.size, probeCore)
		}
		return 64
	})
	add("memmodel.ratefor_ns", ns, "ns")

	// ioat: submit one message's page-sized descriptors and retire
	// them; per descriptor.
	frag := min(m.size, p.PageSize)
	fsrc, fdst := mem.AllocOn(frag*m.frags, 0), mem.AllocOn(frag*m.frags, 0)
	reqs := make([]ioat.CopyReq, m.frags)
	for i := range reqs {
		reqs[i] = ioat.CopyReq{Dst: fdst, DstOff: i * frag, Src: fsrc, SrcOff: i * frag, N: frag}
	}
	ns, _ = measure(func() int {
		e := sim.New()
		eng := ioat.NewEngine(e, p)
		for r := 0; r < 16; r++ {
			eng.Channel(0).Submit(reqs...)
			e.Run()
		}
		return 16 * len(reqs)
	})
	add("ioat.submit_ns", ns, "ns")

	// proto: mark every fragment of a message, then every one again as
	// a duplicate.
	ns, _ = measure(func() int {
		for r := 0; r < 64; r++ {
			asm := proto.NewReassembly(m.frags)
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < m.frags; i++ {
					asm.Mark(i)
				}
			}
		}
		return 64 * 2 * m.frags
	})
	add("proto.mark_ns", ns, "ns")

	// runner: one no-op job per pool Run, uncached (a fresh key each
	// time), then cached (the last key again).
	pool := runner.New(runner.Options{Workers: 1, Cache: runner.NewCache()})
	var job runner.Job
	seq := 0
	ns, _ = measure(func() int {
		seq++
		job = runner.Job{Label: "probe", Key: fmt.Sprint("probe-", seq), Run: func() (any, error) { return nil, nil }}
		pool.Run(job)
		return 1
	})
	add("runner.job_overhead_us", ns/1e3, "us")
	ns, _ = measure(func() int {
		pool.Run(job)
		return 1
	})
	add("runner.hit_us", ns/1e3, "us")
	return out
}
