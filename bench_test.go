package omxsim

// One benchmark per table/figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// reports the figure's headline values through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation and prints the numbers EXPERIMENTS.md
// records. The simulations are deterministic: variance across b.N
// iterations is zero by construction.
//
// The figure generators shard their independent points across the
// process-wide runner pool and cache repeated configurations, so
// iterations after the first measure cache lookups, not simulations
// — the reported metrics are unaffected (the cache returns the same
// deterministic values). The BenchmarkIMBSweep* pair at the bottom
// benchmarks the sweep machinery itself on uncached private pools,
// serial versus parallel.

import (
	"fmt"
	"testing"

	"omxsim/cluster"
	"omxsim/figures"
	"omxsim/imb"
	"omxsim/metrics"
	"omxsim/mpi"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/runner"
)

func report(b *testing.B, t *metrics.Table, series string, atBytes float64, metric string) {
	b.Helper()
	s := t.Get(series)
	if s == nil {
		b.Fatalf("series %q missing", series)
	}
	v, ok := s.At(atBytes)
	if !ok {
		b.Fatalf("series %q has no point at %v", series, atBytes)
	}
	b.ReportMetric(v, metric)
}

// BenchmarkMicroNumbers regenerates the Section IV-A microbenchmarks
// (submission cost, copy rates, offload break-even sizes).
func BenchmarkMicroNumbers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := figures.MicroNumbers()
		b.ReportMetric(m.SubmitNs, "submit-ns")
		b.ReportMetric(m.MemcpyColdGiBps, "memcpy-GiB/s")
		b.ReportMetric(m.IOAT4kGiBps, "ioat4k-GiB/s")
		b.ReportMetric(float64(m.BreakEvenColdB), "breakeven-B")
	}
}

// BenchmarkFig3 regenerates Figure 3 (ping-pong: MX vs Open-MX vs the
// no-BH-copy prediction) and reports the 4 MiB points.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.Fig3()
		report(b, t, "MX", 4<<20, "MX-MiB/s")
		report(b, t, "Open-MX", 4<<20, "OMX-MiB/s")
		report(b, t, "Open-MX ignoring BH receive copy", 4<<20, "nocopy-MiB/s")
	}
}

// BenchmarkFig7 regenerates Figure 7 (memcpy vs I/OAT by chunk size)
// and reports the 1 MiB streaming rates.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.Fig7()
		report(b, t, "I/OAT Copy - 4kB chunks (page)", 1<<20, "ioat4k-MiB/s")
		report(b, t, "Memcpy - 4kB chunks (page)", 1<<20, "memcpy4k-MiB/s")
		report(b, t, "I/OAT Copy - 256B chunks", 1<<20, "ioat256-MiB/s")
	}
}

// BenchmarkFig8 regenerates Figure 8 (ping-pong with I/OAT receive
// offload) and reports the 4 MiB points.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.Fig8()
		report(b, t, "Open-MX with DMA copy in BH receive", 4<<20, "ioat-MiB/s")
		report(b, t, "Open-MX", 4<<20, "plain-MiB/s")
	}
}

// BenchmarkDCA regenerates the memory-hierarchy sweep and reports the
// 256 kB same-core goodput of the memcpy, I/OAT and DCA receive paths
// (the warm-consumer cells the figure's acceptance test pins).
func BenchmarkDCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := figures.DCASweep()
		for _, p := range pts {
			if p.Place == "same-core" && p.Bytes == 256<<10 {
				switch p.Mode {
				case "memcpy":
					b.ReportMetric(p.GoodputMiBps, "memcpy-MiB/s")
				case "I/OAT":
					b.ReportMetric(p.GoodputMiBps, "ioat-MiB/s")
				case "DCA":
					b.ReportMetric(p.GoodputMiBps, "dca-MiB/s")
				}
			}
		}
	}
}

// BenchmarkFig9 regenerates Figure 9 (receive-side CPU usage) and
// reports the 16 MiB totals.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mem, ioat := figures.Fig9()
		b.ReportMetric(mem[len(mem)-1].Total(), "memcpy-CPU%")
		b.ReportMetric(ioat[len(ioat)-1].Total(), "ioat-CPU%")
	}
}

// BenchmarkFig10 regenerates Figure 10 (shared-memory ping-pong) and
// reports the 16 MiB points of the three curves.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.Fig10()
		report(b, t, "Memcpy on the same dual-core subchip", 16<<20, "sameL2-MiB/s")
		report(b, t, "Memcpy between different processor sockets", 16<<20, "xsocket-MiB/s")
		report(b, t, "I/OAT offloaded synchronous copy", 16<<20, "ioat-MiB/s")
	}
}

// BenchmarkFig11 regenerates Figure 11 (IMB PingPong with I/OAT and
// regcache on/off) and reports the 16 MiB points.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.Fig11()
		report(b, t, "MX", 16<<20, "MX-MiB/s")
		report(b, t, "Open-MX I/OAT", 16<<20, "ioat-MiB/s")
		report(b, t, "Open-MX", 16<<20, "plain-MiB/s")
		report(b, t, "Open-MX w/o regcache", 16<<20, "noRC-MiB/s")
	}
}

// BenchmarkFig12_128k and BenchmarkFig12_4M regenerate the four panels
// of Figure 12 (all IMB tests normalized to MXoE) and report the
// per-panel averages.
func BenchmarkFig12_128k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ppn := range []int{1, 2} {
			p := figures.Fig12(128<<10, ppn)
			omx, ioat := p.Averages()
			suffix := "1ppn"
			if ppn == 2 {
				suffix = "2ppn"
			}
			b.ReportMetric(omx, "omx-"+suffix+"-%")
			b.ReportMetric(ioat, "ioat-"+suffix+"-%")
		}
	}
}

func BenchmarkFig12_4M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ppn := range []int{1, 2} {
			p := figures.Fig12(4<<20, ppn)
			omx, ioat := p.Averages()
			suffix := "1ppn"
			if ppn == 2 {
				suffix = "2ppn"
			}
			b.ReportMetric(omx, "omx-"+suffix+"-%")
			b.ReportMetric(ioat, "ioat-"+suffix+"-%")
		}
	}
}

// BenchmarkNASIS regenerates the Section IV-D NAS IS observation.
func BenchmarkNASIS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := figures.NASIS(1<<16, 2)
		var omx, ioat float64
		for _, r := range rs {
			switch r.Stack {
			case "Open-MX":
				omx = r.TimeMs
			case "Open-MX I/OAT":
				ioat = r.TimeMs
			}
		}
		b.ReportMetric(omx, "omx-ms")
		b.ReportMetric(ioat, "ioat-ms")
		b.ReportMetric((omx/ioat-1)*100, "gain-%")
	}
}

// BenchmarkColl regenerates the collective-latency figure (I/OAT
// on/off at 4–16 processes over the switch topology) and reports the
// 1 MB Alltoall and Allreduce points of the largest world.
func BenchmarkColl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := figures.Coll()
		// Tables follow figures.CollTests() order.
		report(b, tabs[0], "Open-MX I/OAT, 16 procs", 1<<20, "allreduce16-us")
		report(b, tabs[1], "Open-MX, 16 procs", 1<<20, "a2a16-us")
		report(b, tabs[1], "Open-MX I/OAT, 16 procs", 1<<20, "a2a16-ioat-us")
	}
}

// BenchmarkAvail regenerates the CPU-availability sweep, reporting
// the 512 kB remote overlap achieved with and without offload.
func BenchmarkAvail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := figures.AvailSweep()
		for _, p := range pts {
			if p.Place != "remote" || p.Bytes != 512<<10 {
				continue
			}
			switch p.Mode {
			case "memcpy":
				b.ReportMetric(p.OverlapPct, "memcpy-overlap-%")
			case "I/OAT":
				b.ReportMetric(p.OverlapPct, "ioat-overlap-%")
			}
		}
	}
}

// BenchmarkMultiNIC regenerates the link-aggregation sweep, reporting
// the 2 MB goodput at 1 and 4 NICs with the per-NIC pull window (the
// scaling headline) and at 4 NICs with the fixed window (the
// plateau).
func BenchmarkMultiNIC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := figures.MultiNICSweep()
		for _, p := range pts {
			if p.Mode != "memcpy" || p.Bytes != 2<<20 {
				continue
			}
			switch {
			case p.Window == "per-NIC" && p.NICs == 1:
				b.ReportMetric(p.GoodputMiBps, "1nic-MiB/s")
			case p.Window == "per-NIC" && p.NICs == 4:
				b.ReportMetric(p.GoodputMiBps, "4nic-MiB/s")
			case p.Window == "fixed" && p.NICs == 4:
				b.ReportMetric(p.GoodputMiBps, "4nic-fixed-MiB/s")
			}
		}
	}
}

// BenchmarkAdaptive regenerates the adaptive-vs-static sweep,
// reporting the lossy headline (5% loss, 1 NIC, memcpy: adaptive vs
// the best static policy) and the worst adaptive/best-static goodput
// ratio across the whole grid (the figure's ≥0.90 acceptance bar).
func BenchmarkAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := figures.AdaptiveSweep()
		type cell struct{ best, adaptive float64 }
		grid := map[string]*cell{}
		for _, p := range pts {
			k := fmt.Sprintf("%s/%g/%d", p.Mode, p.LossRate, p.NICs)
			c := grid[k]
			if c == nil {
				c = &cell{}
				grid[k] = c
			}
			if p.Policy == "adaptive" {
				c.adaptive = p.GoodputMiBps
			} else if p.GoodputMiBps > c.best {
				c.best = p.GoodputMiBps
			}
			if p.Mode == "memcpy" && p.LossRate == 0.05 && p.NICs == 1 && p.Policy == "adaptive" {
				b.ReportMetric(p.GoodputMiBps, "lossy1nic-MiB/s")
			}
		}
		minRatio := 0.0
		for _, c := range grid {
			if r := c.adaptive / c.best; minRatio == 0 || r < minRatio {
				minRatio = r
			}
		}
		b.ReportMetric(minRatio, "min-adv/best")
	}
}

// --- Ablations (design choices DESIGN.md calls out) ---

func BenchmarkAblationMinFrag(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.AblateMinFrag()
		report(b, t, "Open-MX I/OAT", 1024, "frag1k-MiB/s")
		report(b, t, "Open-MX I/OAT", 16384, "frag16k-MiB/s")
	}
}

func BenchmarkAblationPullWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.AblatePullWindow()
		report(b, t, "8 frags/block", 1, "1blk-MiB/s")
		report(b, t, "8 frags/block", 2, "2blk-MiB/s")
	}
}

func BenchmarkAblationIRQSteering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figures.AblateIRQSteering()
		report(b, t, "Open-MX", 0, "dedicated-MiB/s")
		report(b, t, "Open-MX", 1, "shared-MiB/s")
	}
}

// BenchmarkTimeline regenerates the Figure 5/6 traces (cost sanity
// for the tracing hooks).
func BenchmarkTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = figures.Timeline(false)
		_ = figures.Timeline(true)
	}
}

// --- Sweep machinery ---

// sweepPoints builds the (stack, size, ppn) matrix of Figure 11/12
// style runs as independent imb sweep points.
func sweepPoints() []imb.Point {
	stacks := []figures.Stack{
		{Kind: "mxoe", MX: mxoe.Config{RegCache: true}},
		{Kind: "openmx", OMX: openmx.Config{RegCache: true}},
		{Kind: "openmx", OMX: openmx.Config{RegCache: true, IOAT: true, IOATShm: true}},
	}
	var points []imb.Point
	for _, s := range stacks {
		for _, size := range []int{64 << 10, 1 << 20} {
			for _, ppn := range []int{1, 2} {
				s, size, ppn := s, size, ppn
				points = append(points, imb.Point{
					Name:  fmt.Sprintf("%s/%d/%dppn", s.Name(), size, ppn),
					Build: func() (*cluster.Cluster, *mpi.World) { return figures.Testbed(s, ppn) },
					Test:  "PingPong",
					Sizes: []int{size},
					Iters: func(int) int { return 3 },
				})
			}
		}
	}
	return points
}

// benchSweep runs the point matrix on an uncached pool of the given
// width, so b.N iterations re-simulate every point and the serial and
// parallel benchmarks compare honestly.
func benchSweep(b *testing.B, workers int) {
	points := sweepPoints()
	for i := 0; i < b.N; i++ {
		pool := runner.New(runner.Options{Workers: workers})
		if _, err := imb.Sweep(pool, points); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIMBSweepSerial and BenchmarkIMBSweepParallel time the same
// 12-point (stack, size, ppn) matrix on one worker versus GOMAXPROCS
// workers; their ratio is the wall-clock speedup the runner buys on
// this host.
func BenchmarkIMBSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkIMBSweepParallel(b *testing.B) { benchSweep(b, 0) }
