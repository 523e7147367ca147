package mxoe

import (
	"runtime"
	"testing"

	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

type pair struct {
	e        *sim.Engine
	p        *platform.Platform
	sa, sb   *Stack
	epA, epB *Endpoint
}

func newPair(t testing.TB, cfg Config) *pair {
	t.Helper()
	e := sim.New()
	p := platform.Clovertown()
	ha, hb := host.New(e, p, "mxA"), host.New(e, p, "mxB")
	ab, ba := wire.Connect(e, p, ha.NIC, hb.NIC)
	ha.NIC.SetHose(ab)
	hb.NIC.SetHose(ba)
	sa, sb := Attach(ha, cfg), Attach(hb, cfg)
	pr := &pair{e: e, p: p, sa: sa, sb: sb}
	pr.epA = sa.OpenEndpoint(0, 2)
	pr.epB = sb.OpenEndpoint(0, 2)
	t.Cleanup(e.Close)
	return pr
}

func sendRecv(t *testing.T, pr *pair, n int) sim.Time {
	t.Helper()
	src, dst := pr.sa.H.Alloc(n), pr.sb.H.Alloc(n)
	src.Fill(0x33)
	var done sim.Time
	pr.e.Go("recv", func(p *sim.Proc) {
		r := pr.epB.IRecv(p, 9, ^uint64(0), dst, 0, n)
		pr.epB.Wait(p, r)
		done = p.Now()
	})
	pr.e.Go("send", func(p *sim.Proc) {
		r := pr.epA.ISend(p, pr.epB.Addr(), 9, src, 0, n)
		pr.epA.Wait(p, r)
	})
	pr.e.RunUntil(2 * sim.Second)
	if done == 0 {
		t.Fatalf("recv never completed (n=%d), blocked: %v", n, pr.e.BlockedProcs())
	}
	if !hostmem.Equal(src, dst) {
		t.Fatalf("payload corrupted (n=%d)", n)
	}
	return done
}

func TestTiny(t *testing.T)   { sendRecv(t, newPair(t, Config{}), 16) }
func TestSmall(t *testing.T)  { sendRecv(t, newPair(t, Config{}), 128) }
func TestMedium(t *testing.T) { sendRecv(t, newPair(t, Config{}), 16*1024) }
func TestLarge(t *testing.T)  { sendRecv(t, newPair(t, Config{}), 1<<20) }
func TestHuge(t *testing.T)   { sendRecv(t, newPair(t, Config{}), 8<<20) }

func TestSmallLatencyNearThreeMicroseconds(t *testing.T) {
	// Native MX one-way small-message latency is ≈3 µs on this class
	// of hardware.
	pr := newPair(t, Config{})
	lat := sendRecv(t, pr, 16)
	if lat < 1500 || lat > 5000 {
		t.Fatalf("MX small latency = %v, want ≈3 µs", lat)
	}
}

func TestZeroHostCPUOnReceivePath(t *testing.T) {
	// The receiving host must burn CPU only in the library (posting,
	// matching, the single eager copy) — never in bottom halves.
	pr := newPair(t, Config{})
	sendRecv(t, pr, 1<<20)
	byCat := pr.sb.H.Sys.BusyByCategory()
	for cat, ns := range byCat {
		if cat.String() == "bh-proc" || cat.String() == "bh-copy" {
			t.Fatalf("native MX burned %v in %v", ns, cat)
		}
	}
}

func TestLargeZeroCopyNoLibraryCopyCost(t *testing.T) {
	// For a large message the receive-side CPU cost must be tiny:
	// matching + pull post + pin + completion, but no data copy.
	pr := newPair(t, Config{})
	pr.sb.H.Sys.ResetAccounting()
	sendRecv(t, pr, 4<<20)
	busy := pr.sb.H.Sys.TotalBusy()
	// Pinning 1024 pages at 600 ns dominates; allow 1.5 ms, far below
	// any copy of 4 MiB (≈2.6 ms at 1.6 GiB/s would be the tell).
	if busy > 1500*sim.Microsecond {
		t.Fatalf("receive-side CPU = %v, too high for zero-copy", busy)
	}
}

func TestUnexpectedRndv(t *testing.T) {
	pr := newPair(t, Config{})
	n := 512 * 1024
	src, dst := pr.sa.H.Alloc(n), pr.sb.H.Alloc(n)
	src.Fill(6)
	pr.e.Go("send", func(p *sim.Proc) {
		r := pr.epA.ISend(p, pr.epB.Addr(), 3, src, 0, n)
		pr.epA.Wait(p, r)
	})
	pr.e.Go("recv", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		r := pr.epB.IRecv(p, 3, ^uint64(0), dst, 0, n)
		pr.epB.Wait(p, r)
	})
	pr.e.RunUntil(sim.Second)
	if !hostmem.Equal(src, dst) {
		t.Fatal("unexpected rndv corrupted")
	}
}

func TestRegCachePinsOnce(t *testing.T) {
	pr := newPair(t, Config{RegCache: true})
	n := 256 * 1024
	src, dst := pr.sa.H.Alloc(n), pr.sb.H.Alloc(n)
	pr.e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r := pr.epB.IRecv(p, 1, ^uint64(0), dst, 0, n)
			pr.epB.Wait(p, r)
		}
	})
	pr.e.Go("send", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r := pr.epA.ISend(p, pr.epB.Addr(), 1, src, 0, n)
			pr.epA.Wait(p, r)
		}
	})
	pr.e.RunUntil(2 * sim.Second)
	if !src.Pinned() || !dst.Pinned() {
		t.Fatal("regcache should keep buffers pinned")
	}
}

// Large-message throughput must land near the paper's 1140 MiB/s.
func TestLargeThroughputNearPaper(t *testing.T) {
	pr := newPair(t, Config{RegCache: true})
	n := 8 << 20
	src, dst := pr.sa.H.Alloc(n), pr.sb.H.Alloc(n)
	xfer := func(tag uint64) (mibps float64) {
		var t0, t1 sim.Time
		pr.e.Go("recv", func(p *sim.Proc) {
			r := pr.epB.IRecv(p, tag, ^uint64(0), dst, 0, n)
			pr.epB.Wait(p, r)
			t1 = p.Now()
		})
		pr.e.Go("send", func(p *sim.Proc) {
			t0 = p.Now()
			r := pr.epA.ISend(p, pr.epB.Addr(), tag, src, 0, n)
			pr.epA.Wait(p, r)
		})
		pr.e.RunUntil(pr.e.Now() + sim.Second)
		if t1 == 0 {
			t.Fatal("transfer did not finish")
		}
		return float64(n) / 1024 / 1024 / (t1 - t0).Seconds()
	}
	xfer(1) // warm the registration caches (IMB reuses buffers too)
	mibps := xfer(2)
	if mibps < 1080 || mibps > 1190 {
		t.Fatalf("MX large throughput = %.0f MiB/s, want ≈1140", mibps)
	}
}

// BenchmarkEndpointOpen measures opening one endpoint, its receive
// queue included. `make benchalloc` fails if an open allocates more
// than 64 KiB: the modelled 2 MiB queue must not be real memory until
// its slots are used.
func BenchmarkEndpointOpen(b *testing.B) {
	e := sim.New()
	defer e.Close()
	s := Attach(host.New(e, platform.Clovertown(), "h"), Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.OpenEndpoint(0, 2)
		delete(s.endpoints, 0)
	}
}

// BenchmarkPingPong1MB runs 1 MiB ping-pong round trips between two
// native MX hosts and reports the heap bytes the run allocates per
// simulated MiB of payload delivered (B/simMiB), after one warm-up
// round trip. `make benchalloc` fails above 256 KiB per simulated MiB:
// pulled fragments reference the pinned source instead of copying it.
func BenchmarkPingPong1MB(b *testing.B) {
	const n = 1 << 20
	pr := newPair(b, Config{})
	bufA, bufB := pr.sa.H.Alloc(n), pr.sb.H.Alloc(n)
	bufA.Fill(1)
	rounds := func(k int) {
		pr.e.Go("ping", func(p *sim.Proc) {
			for range k {
				pr.epA.Wait(p, pr.epA.ISend(p, pr.epB.Addr(), 1, bufA, 0, n))
				pr.epA.Wait(p, pr.epA.IRecv(p, 2, ^uint64(0), bufA, 0, n))
			}
		})
		pr.e.Go("pong", func(p *sim.Proc) {
			for range k {
				pr.epB.Wait(p, pr.epB.IRecv(p, 1, ^uint64(0), bufB, 0, n))
				pr.epB.Wait(p, pr.epB.ISend(p, pr.epA.Addr(), 2, bufB, 0, n))
			}
		})
		if pr.e.Run() != 0 {
			b.Fatalf("ping-pong deadlocked: %v", pr.e.BlockedProcs())
		}
	}
	rounds(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	rounds(b.N)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	simMiB := float64(2*b.N*n) / (1 << 20)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/simMiB, "B/simMiB")
}
