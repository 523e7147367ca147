package core

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/mxlib"
	"omxsim/internal/proto"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

func newHost(e *sim.Engine, p *platform.Platform, name string) *host.Host {
	return host.New(e, p, name)
}

// pair is a two-host test fixture with one endpoint per host.
type pair struct {
	e        *sim.Engine
	p        *platform.Platform
	sa, sb   *Stack
	epA, epB *Endpoint
}

func newPair(t testing.TB, cfgA, cfgB Config) *pair {
	t.Helper()
	e := sim.New()
	p := platform.Clovertown()
	ha := newHost(e, p, "hostA")
	hb := newHost(e, p, "hostB")
	ab, ba := wire.Connect(e, p, ha.NIC, hb.NIC)
	ha.NIC.SetHose(ab)
	hb.NIC.SetHose(ba)
	sa := Attach(ha, cfgA)
	sb := Attach(hb, cfgB)
	pr := &pair{e: e, p: p, sa: sa, sb: sb}
	pr.epA = sa.OpenEndpoint(0, 2)
	pr.epB = sb.OpenEndpoint(0, 2)
	t.Cleanup(e.Close)
	return pr
}

// run drives the engine and fails the test on deadlock.
func (pr *pair) run(t *testing.T) {
	t.Helper()
	pr.e.RunUntil(5 * sim.Second)
	if n := len(pr.e.BlockedProcs()); n > 2 { // the two NIC BH loops always wait
		t.Fatalf("deadlock: blocked procs %v", pr.e.BlockedProcs())
	}
}

// sendRecv moves n bytes A→B and checks integrity; returns the
// simulated half-round time observed by the receiver.
func sendRecv(t *testing.T, pr *pair, n int) {
	t.Helper()
	src := pr.sa.H.Alloc(n)
	dst := pr.sb.H.Alloc(n)
	src.Fill(0x5A)
	doneB := false
	pr.e.Go("recv", func(p *sim.Proc) {
		r := pr.epB.IRecv(p, 42, ^uint64(0), dst, 0, n)
		pr.epB.Wait(p, r)
		if r.Len() != n {
			t.Errorf("recv len = %d, want %d", r.Len(), n)
		}
		doneB = true
	})
	pr.e.Go("send", func(p *sim.Proc) {
		r := pr.epA.ISend(p, pr.epB.Addr(), 42, src, 0, n)
		pr.epA.Wait(p, r)
	})
	pr.run(t)
	if !doneB {
		t.Fatalf("recv never completed for n=%d", n)
	}
	if !hostmem.Equal(src, dst) {
		t.Fatalf("payload corrupted for n=%d", n)
	}
}

func TestTinyMessage(t *testing.T)   { sendRecv(t, newPair(t, Config{}, Config{}), 16) }
func TestSmallMessage(t *testing.T)  { sendRecv(t, newPair(t, Config{}, Config{}), 100) }
func TestMediumMessage(t *testing.T) { sendRecv(t, newPair(t, Config{}, Config{}), 9000) }
func TestMediumMax(t *testing.T)     { sendRecv(t, newPair(t, Config{}, Config{}), 32*1024) }
func TestLargeMessage(t *testing.T)  { sendRecv(t, newPair(t, Config{}, Config{}), 300*1024) }
func TestHugeMessage(t *testing.T)   { sendRecv(t, newPair(t, Config{}, Config{}), 4<<20) }
func TestZeroByteMessage(t *testing.T) {
	sendRecv(t, newPair(t, Config{}, Config{}), 0)
}

func TestLargeMessageWithIOAT(t *testing.T) {
	cfg := Config{IOAT: true}
	pr := newPair(t, cfg, cfg)
	sendRecv(t, pr, 1<<20)
	if pr.sb.Stats.IOATSubmits == 0 {
		t.Fatal("no I/OAT submissions on receiver")
	}
	if pr.sb.Stats.CleanupFrees == 0 {
		t.Fatal("cleanup routine never freed skbuffs")
	}
}

func TestIOATBelowThresholdUsesMemcpy(t *testing.T) {
	cfg := Config{IOAT: true} // IOATMinMsg defaults to 64 kB
	pr := newPair(t, cfg, cfg)
	sendRecv(t, pr, 40*1024) // large (>32k) but below I/OAT min message
	if pr.sb.Stats.IOATSubmits != 0 {
		t.Fatalf("I/OAT used below threshold: %d submits", pr.sb.Stats.IOATSubmits)
	}
}

func TestSkipBHCopyStillDeliversBytes(t *testing.T) {
	pr := newPair(t, Config{SkipBHCopy: true}, Config{SkipBHCopy: true})
	sendRecv(t, pr, 1<<20)
}

func TestIOATSyncMediumPath(t *testing.T) {
	cfg := Config{IOATSyncMedium: true}
	pr := newPair(t, cfg, cfg)
	sendRecv(t, pr, 16*1024)
	if pr.sb.Stats.IOATSubmits == 0 {
		t.Fatal("medium fragments not offloaded")
	}
}

func TestUnexpectedRendezvousThenRecv(t *testing.T) {
	pr := newPair(t, Config{}, Config{})
	n := 256 * 1024
	src := pr.sa.H.Alloc(n)
	dst := pr.sb.H.Alloc(n)
	src.Fill(9)
	pr.e.Go("send", func(p *sim.Proc) {
		r := pr.epA.ISend(p, pr.epB.Addr(), 7, src, 0, n)
		pr.epA.Wait(p, r)
	})
	pr.e.Go("recv-late", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		r := pr.epB.IRecv(p, 7, ^uint64(0), dst, 0, n)
		pr.epB.Wait(p, r)
	})
	pr.run(t)
	if !hostmem.Equal(src, dst) {
		t.Fatal("unexpected rendezvous corrupted data")
	}
}

func TestMatchingWithMask(t *testing.T) {
	pr := newPair(t, Config{}, Config{})
	a := pr.sa.H.Alloc(64)
	b := pr.sa.H.Alloc(64)
	a.Fill(1)
	b.Fill(2)
	dstTagged := pr.sb.H.Alloc(64)
	dstAny := pr.sb.H.Alloc(64)
	var taggedMatch, anyMatch uint64
	pr.e.Go("recv", func(p *sim.Proc) {
		// First recv: match only tag 0xBB00 in the high byte.
		r1 := pr.epB.IRecv(p, 0xBB00, 0xFF00, dstTagged, 0, 64)
		r2 := pr.epB.IRecv(p, 0, 0, dstAny, 0, 64) // wildcard
		pr.epB.Wait(p, r1)
		pr.epB.Wait(p, r2)
		taggedMatch, anyMatch = r1.Match(), r2.Match()
	})
	pr.e.Go("send", func(p *sim.Proc) {
		// 0xAA01 only matches the wildcard; 0xBB77 matches the tagged.
		r1 := pr.epA.ISend(p, pr.epB.Addr(), 0xAA01, a, 0, 64)
		r2 := pr.epA.ISend(p, pr.epB.Addr(), 0xBB77, b, 0, 64)
		pr.epA.Wait(p, r1)
		pr.epA.Wait(p, r2)
	})
	pr.run(t)
	if taggedMatch != 0xBB77 {
		t.Fatalf("tagged recv matched %#x", taggedMatch)
	}
	if anyMatch != 0xAA01 {
		t.Fatalf("wildcard recv matched %#x", anyMatch)
	}
	if dstTagged.Data[0] != b.Data[0] || dstAny.Data[0] != a.Data[0] {
		t.Fatal("payloads crossed")
	}
}

func TestManyConcurrentMessages(t *testing.T) {
	pr := newPair(t, Config{IOAT: true}, Config{IOAT: true})
	const count = 12
	sizes := []int{16, 200, 5000, 40000, 100000, 16, 9000, 70000, 32, 128, 4096, 300000}
	srcs := make([]*hostmem.Buffer, count)
	dsts := make([]*hostmem.Buffer, count)
	for i := range srcs {
		srcs[i] = pr.sa.H.Alloc(sizes[i])
		dsts[i] = pr.sb.H.Alloc(sizes[i])
		srcs[i].Fill(byte(i + 1))
	}
	pr.e.Go("recv", func(p *sim.Proc) {
		var reqs []*mxlib.Request
		for i := 0; i < count; i++ {
			reqs = append(reqs, pr.epB.IRecv(p, uint64(i), ^uint64(0), dsts[i], 0, sizes[i]))
		}
		for _, r := range reqs {
			pr.epB.Wait(p, r)
		}
	})
	pr.e.Go("send", func(p *sim.Proc) {
		var reqs []*mxlib.Request
		for i := 0; i < count; i++ {
			reqs = append(reqs, pr.epA.ISend(p, pr.epB.Addr(), uint64(i), srcs[i], 0, sizes[i]))
		}
		for _, r := range reqs {
			pr.epA.Wait(p, r)
		}
	})
	pr.run(t)
	for i := range srcs {
		if !hostmem.Equal(srcs[i], dsts[i]) {
			t.Fatalf("message %d (size %d) corrupted", i, sizes[i])
		}
	}
}

func TestLossRecoveryLarge(t *testing.T) {
	pr := newPair(t, Config{RetransmitTimeout: 2 * sim.Millisecond},
		Config{RetransmitTimeout: 2 * sim.Millisecond})
	// Drop 10% of frames deterministically, both directions.
	n := 0
	drop := func(f *wire.Frame) bool { n++; return n%10 == 3 }
	pr.sa.H.NIC.Hose().Drop = drop
	pr.sb.H.NIC.Hose().Drop = drop
	sendRecv(t, pr, 1<<20)
	if pr.sb.Stats.PullRetransmits == 0 && pr.sa.Stats.RndvRetransmits == 0 &&
		pr.sb.Stats.DupFrags == 0 && pr.sa.Stats.EagerRetransmits == 0 {
		t.Log("warning: no retransmission was exercised (drops may have missed data frames)")
	}
}

func TestLossRecoveryLargeIOAT(t *testing.T) {
	cfg := Config{IOAT: true, RetransmitTimeout: 2 * sim.Millisecond}
	pr := newPair(t, cfg, cfg)
	n := 0
	pr.sa.H.NIC.Hose().Drop = func(f *wire.Frame) bool { n++; return n%7 == 2 }
	sendRecv(t, pr, 1<<20)
}

func TestLossRecoveryEager(t *testing.T) {
	cfg := Config{RetransmitTimeout: 2 * sim.Millisecond}
	pr := newPair(t, cfg, cfg)
	// Period 5 against 4 fragments per retransmission round, so the
	// dropped position rotates and the transfer converges.
	n := 0
	pr.sa.H.NIC.Hose().Drop = func(f *wire.Frame) bool { n++; return n%5 == 1 }
	sendRecv(t, pr, 16*1024)
	if pr.sa.Stats.EagerRetransmits == 0 {
		t.Fatal("expected eager retransmissions")
	}
}

func TestRegCacheAvoidsRepinning(t *testing.T) {
	cfg := Config{RegCache: true}
	pr := newPair(t, cfg, cfg)
	n := 128 * 1024
	src := pr.sa.H.Alloc(n)
	dst := pr.sb.H.Alloc(n)
	iters := 5
	pr.e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			r := pr.epB.IRecv(p, 1, ^uint64(0), dst, 0, n)
			pr.epB.Wait(p, r)
		}
	})
	pr.e.Go("send", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			r := pr.epA.ISend(p, pr.epB.Addr(), 1, src, 0, n)
			pr.epA.Wait(p, r)
		}
	})
	pr.run(t)
	// With the cache, the buffer is pinned exactly once per side.
	if !src.Pinned() || !dst.Pinned() {
		t.Fatal("buffers should stay pinned under regcache")
	}
}

func TestWithoutRegCacheUnpins(t *testing.T) {
	pr := newPair(t, Config{}, Config{})
	n := 128 * 1024
	src := pr.sa.H.Alloc(n)
	dst := pr.sb.H.Alloc(n)
	sendRecvBufs(t, pr, src, dst, n)
	if src.Pinned() || dst.Pinned() {
		t.Fatal("buffers still pinned without regcache")
	}
}

func sendRecvBufs(t *testing.T, pr *pair, src, dst *hostmem.Buffer, n int) {
	t.Helper()
	src.Fill(0x11)
	pr.e.Go("recv", func(p *sim.Proc) {
		r := pr.epB.IRecv(p, 42, ^uint64(0), dst, 0, n)
		pr.epB.Wait(p, r)
	})
	pr.e.Go("send", func(p *sim.Proc) {
		r := pr.epA.ISend(p, pr.epB.Addr(), 42, src, 0, n)
		pr.epA.Wait(p, r)
	})
	pr.run(t)
	if !hostmem.Equal(src, dst) {
		t.Fatal("corrupted")
	}
}

func TestSkbuffPoolBounded(t *testing.T) {
	// The cleanup routine must keep the pending skbuff pool bounded
	// during a very large I/OAT receive (Section III-B).
	cfg := Config{IOAT: true}
	pr := newPair(t, cfg, cfg)
	maxLive := 0
	pr.e.Go("watch", func(p *sim.Proc) {
		for i := 0; i < 4000; i++ {
			p.Sleep(5 * sim.Microsecond)
			if live := pr.sb.H.NIC.SkbsLive(); live > maxLive {
				maxLive = live
			}
		}
	})
	sendRecv(t, pr, 8<<20)
	// Two pipelined blocks of 8 fragments are outstanding; allow a
	// little slack for frames in flight between NIC and BH.
	limit := 2*pr.sa.Cfg.PullBlockFrags + 8
	if maxLive > limit {
		t.Fatalf("skbuff pool grew to %d (> %d): cleanup not bounding memory", maxLive, limit)
	}
	if maxLive == 0 {
		t.Fatal("watcher saw no live skbuffs at all")
	}
}

// --- Local (shared-memory) path ---

type localFixture struct {
	e      *sim.Engine
	s      *Stack
	e0, e1 *Endpoint
}

func newLocal(t *testing.T, cfg Config, core0, core1 int) *localFixture {
	t.Helper()
	e := sim.New()
	p := platform.Clovertown()
	h := newHost(e, p, "host")
	s := Attach(h, cfg)
	t.Cleanup(e.Close)
	return &localFixture{e: e, s: s, e0: s.OpenEndpoint(0, core0), e1: s.OpenEndpoint(1, core1)}
}

func localSendRecv(t *testing.T, fx *localFixture, n int) {
	t.Helper()
	src := fx.s.H.Alloc(n)
	dst := fx.s.H.Alloc(n)
	src.Fill(0x77)
	pr := false
	fx.e.Go("recv", func(p *sim.Proc) {
		r := fx.e1.IRecv(p, 5, ^uint64(0), dst, 0, n)
		fx.e1.Wait(p, r)
		pr = true
	})
	fx.e.Go("send", func(p *sim.Proc) {
		r := fx.e0.ISend(p, fx.e1.Addr(), 5, src, 0, n)
		fx.e0.Wait(p, r)
	})
	fx.e.RunUntil(sim.Second)
	if !pr {
		t.Fatal("local recv never completed")
	}
	if !hostmem.Equal(src, dst) {
		t.Fatal("local payload corrupted")
	}
}

func TestLocalSmall(t *testing.T)  { localSendRecv(t, newLocal(t, Config{}, 0, 1), 64) }
func TestLocalMedium(t *testing.T) { localSendRecv(t, newLocal(t, Config{}, 0, 1), 16*1024) }
func TestLocalLarge(t *testing.T)  { localSendRecv(t, newLocal(t, Config{}, 0, 1), 4<<20) }

func TestLocalIOAT(t *testing.T) {
	fx := newLocal(t, Config{IOATShm: true}, 0, 4)
	localSendRecv(t, fx, 1<<20)
	if fx.s.Stats.LocalIOATCopies == 0 {
		t.Fatal("local I/OAT copy not used")
	}
}

func TestLocalIOATThreshold(t *testing.T) {
	fx := newLocal(t, Config{IOATShm: true}, 0, 1)
	localSendRecv(t, fx, 8*1024) // below 32k threshold
	if fx.s.Stats.LocalIOATCopies != 0 {
		t.Fatal("local I/OAT used below threshold")
	}
}

func TestLocalUnexpected(t *testing.T) {
	fx := newLocal(t, Config{}, 0, 1)
	n := 64 * 1024
	src := fx.s.H.Alloc(n)
	dst := fx.s.H.Alloc(n)
	src.Fill(0x21)
	fx.e.Go("send", func(p *sim.Proc) {
		r := fx.e0.ISend(p, fx.e1.Addr(), 5, src, 0, n)
		fx.e0.Wait(p, r)
	})
	fx.e.Go("recv-late", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		r := fx.e1.IRecv(p, 5, ^uint64(0), dst, 0, n)
		fx.e1.Wait(p, r)
	})
	fx.e.RunUntil(sim.Second)
	if !hostmem.Equal(src, dst) {
		t.Fatal("unexpected local message corrupted")
	}
}

func TestSelfSend(t *testing.T) {
	fx := newLocal(t, Config{}, 0, 1)
	n := 1024
	src := fx.s.H.Alloc(n)
	dst := fx.s.H.Alloc(n)
	src.Fill(0x44)
	fx.e.Go("self", func(p *sim.Proc) {
		rs := fx.e0.ISend(p, fx.e0.Addr(), 9, src, 0, n)
		rr := fx.e0.IRecv(p, 9, ^uint64(0), dst, 0, n)
		fx.e0.Wait(p, rr)
		fx.e0.Wait(p, rs)
	})
	fx.e.RunUntil(sim.Second)
	if !hostmem.Equal(src, dst) {
		t.Fatal("self-send corrupted")
	}
}

// --- Unit tests for helpers ---

func TestPageChunks(t *testing.T) {
	cases := []struct {
		start, n int
		want     []int
	}{
		{0, 8192, []int{4096, 4096}},
		{0, 4096, []int{4096}},
		{100, 8192, []int{3996, 4096, 100}},
		{4000, 200, []int{96, 104}},
		{0, 1, []int{1}},
		{4095, 2, []int{1, 1}},
		{0, 0, nil},
	}
	for _, c := range cases {
		got := pageChunks(c.start, c.n, 4096)
		if len(got) != len(c.want) {
			t.Fatalf("pageChunks(%d,%d) = %v, want %v", c.start, c.n, got, c.want)
		}
		sum := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("pageChunks(%d,%d) = %v, want %v", c.start, c.n, got, c.want)
			}
			sum += got[i]
		}
		if sum != c.n {
			t.Fatalf("chunks don't sum: %v vs %d", got, c.n)
		}
	}
}

// Property: pageChunks conserves length, respects page bounds, and
// every interior chunk is page-aligned on the destination.
func TestPropertyPageChunks(t *testing.T) {
	f := func(start, n uint16) bool {
		s, ln := int(start), int(n)
		chunks := pageChunks(s, ln, 4096)
		sum, pos := 0, s
		for i, c := range chunks {
			if c <= 0 || c > 4096 {
				return false
			}
			if i > 0 && pos%4096 != 0 {
				return false
			}
			sum += c
			pos += c
		}
		return sum == ln
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatchesSemantics(t *testing.T) {
	if !proto.Matches(0xFF, 0xFF, 0xFF) {
		t.Fatal("exact match failed")
	}
	if proto.Matches(0xFF, 0xFF, 0xFE) {
		t.Fatal("mismatch accepted")
	}
	if !proto.Matches(0, 0, 0xDEADBEEF) {
		t.Fatal("wildcard (mask 0) must match anything")
	}
	if !proto.Matches(0x1200, 0xFF00, 0x12AB) {
		t.Fatal("masked match failed")
	}
}

// Property: any size round-trips intact through the full network stack
// with any combination of I/OAT configs.
func TestPropertyAnySizeIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(1 << 19)
		cfg := Config{
			IOAT:           rng.Intn(2) == 0,
			IOATSyncMedium: rng.Intn(2) == 0,
		}
		e := sim.New()
		defer e.Close()
		p := platform.Clovertown()
		ha := newHost(e, p, "A")
		hb := newHost(e, p, "B")
		ab, ba := wire.Connect(e, p, ha.NIC, hb.NIC)
		ha.NIC.SetHose(ab)
		hb.NIC.SetHose(ba)
		sa, sb := Attach(ha, cfg), Attach(hb, cfg)
		ea, eb := sa.OpenEndpoint(0, 2), sb.OpenEndpoint(0, 2)
		src, dst := ha.Alloc(n), hb.Alloc(n)
		src.Fill(byte(seed))
		ok := false
		e.Go("recv", func(p *sim.Proc) {
			r := eb.IRecv(p, 1, ^uint64(0), dst, 0, n)
			eb.Wait(p, r)
			ok = r.Len() == n
		})
		e.Go("send", func(p *sim.Proc) {
			r := ea.ISend(p, eb.Addr(), 1, src, 0, n)
			ea.Wait(p, r)
		})
		e.RunUntil(2 * sim.Second)
		return ok && hostmem.Equal(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// proto sanity used across tests.
func TestFragMath(t *testing.T) {
	if proto.FragsOf(8192) != 1 || proto.FragsOf(8193) != 2 {
		t.Fatal("FragsOf wrong")
	}
	if proto.MediumFragsOf(0) != 1 || proto.MediumFragsOf(128) != 1 || proto.MediumFragsOf(4097) != 2 {
		t.Fatal("MediumFragsOf wrong")
	}
}

// BenchmarkEndpointOpen measures opening one endpoint, its receive
// ring included. `make benchalloc` fails if an open allocates more
// than 64 KiB: the modelled 2 MiB ring must not be real memory until
// its slots are used.
func BenchmarkEndpointOpen(b *testing.B) {
	e := sim.New()
	defer e.Close()
	s := Attach(newHost(e, platform.Clovertown(), "h"), Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.OpenEndpoint(0, 2)
		delete(s.endpoints, 0)
	}
}

// BenchmarkPingPong1MB runs 1 MiB ping-pong round trips between two
// Open-MX hosts and reports the heap bytes the run allocates per
// simulated MiB of payload delivered (B/simMiB), after one warm-up
// round trip. `make benchalloc` fails above 256 KiB per simulated MiB:
// frames reference the pinned source and skbuff backings are recycled,
// so no payload byte is allocated again in transit.
func BenchmarkPingPong1MB(b *testing.B) {
	const n = 1 << 20
	pr := newPair(b, Config{}, Config{})
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
