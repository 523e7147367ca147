// Package interop tests wire compatibility between Open-MX and the
// native MXoE stack: "Open-MX enables interoperability between any
// hosts, even when running the native MXoE stack on Myricom's
// Myri-10G boards" — the BlueGene/P PVFS2 deployment the paper
// motivates runs exactly this mixed configuration (Open-MX compute
// nodes talking to native-MX I/O nodes).
package interop

import (
	"testing"

	"omxsim/internal/core"
	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/mxlib"
	"omxsim/internal/mxoe"
	"omxsim/internal/proto"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

// fixture: hostA runs Open-MX (commodity NIC path), hostB runs native
// MXoE (firmware path), back to back.
type fixture struct {
	e   *sim.Engine
	omx *core.Stack
	mx  *mxoe.Stack
	eo  *core.Endpoint
	em  *mxoe.Endpoint
}

func newFixture(t *testing.T, omxCfg core.Config) *fixture {
	t.Helper()
	e := sim.New()
	p := platform.Clovertown()
	ha := host.New(e, p, "omx-node")
	hb := host.New(e, p, "mx-node")
	ab, ba := wire.Connect(e, p, ha.NIC, hb.NIC)
	ha.NIC.SetHose(ab)
	hb.NIC.SetHose(ba)
	fx := &fixture{
		e:   e,
		omx: core.Attach(ha, omxCfg),
		mx:  mxoe.Attach(hb, mxoe.Config{}),
	}
	fx.eo = fx.omx.OpenEndpoint(0, 2)
	fx.em = fx.mx.OpenEndpoint(0, 2)
	t.Cleanup(e.Close)
	return fx
}

// omxToMX moves n bytes from the Open-MX host to the native MX host.
func omxToMX(t *testing.T, fx *fixture, n int) {
	t.Helper()
	src := fx.omx.H.Alloc(n)
	dst := fx.mx.H.Alloc(n)
	src.Fill(0xAB)
	done := false
	fx.e.Go("mx-recv", func(p *sim.Proc) {
		r := fx.em.IRecv(p, 4, ^uint64(0), dst, 0, n)
		fx.em.Wait(p, r)
		done = r.Len() == n
	})
	fx.e.Go("omx-send", func(p *sim.Proc) {
		r := fx.eo.ISend(p, proto.Addr{Host: "mx-node", EP: 0}, 4, src, 0, n)
		fx.eo.Wait(p, r)
	})
	fx.e.RunUntil(fx.e.Now() + 2*sim.Second)
	if !done {
		t.Fatalf("omx→mx n=%d never completed; blocked: %v", n, fx.e.BlockedProcs())
	}
	if !hostmem.Equal(src, dst) {
		t.Fatalf("omx→mx n=%d corrupted", n)
	}
}

// mxToOMX moves n bytes from the native MX host to the Open-MX host.
func mxToOMX(t *testing.T, fx *fixture, n int) {
	t.Helper()
	src := fx.mx.H.Alloc(n)
	dst := fx.omx.H.Alloc(n)
	src.Fill(0xCD)
	done := false
	fx.e.Go("omx-recv", func(p *sim.Proc) {
		r := fx.eo.IRecv(p, 5, ^uint64(0), dst, 0, n)
		fx.eo.Wait(p, r)
		done = r.Len() == n
	})
	fx.e.Go("mx-send", func(p *sim.Proc) {
		r := fx.em.ISend(p, proto.Addr{Host: "omx-node", EP: 0}, 5, src, 0, n)
		fx.em.Wait(p, r)
	})
	fx.e.RunUntil(fx.e.Now() + 2*sim.Second)
	if !done {
		t.Fatalf("mx→omx n=%d never completed; blocked: %v", n, fx.e.BlockedProcs())
	}
	if !hostmem.Equal(src, dst) {
		t.Fatalf("mx→omx n=%d corrupted", n)
	}
}

func TestEagerInterop(t *testing.T) {
	for _, n := range []int{16, 128, 4096, 32 * 1024} {
		fx := newFixture(t, core.Config{})
		omxToMX(t, fx, n)
		mxToOMX(t, fx, n)
	}
}

func TestLargeInterop(t *testing.T) {
	for _, n := range []int{100 * 1024, 1 << 20} {
		fx := newFixture(t, core.Config{})
		omxToMX(t, fx, n)
		mxToOMX(t, fx, n)
	}
}

func TestLargeInteropWithIOAT(t *testing.T) {
	// The Open-MX receiver offloads its copies even when the sender
	// is native-MX firmware: the wire protocol is identical.
	fx := newFixture(t, core.Config{IOAT: true})
	mxToOMX(t, fx, 2<<20)
	if fx.omx.Stats.IOATSubmits == 0 {
		t.Fatal("Open-MX receiver did not offload copies of MX-sent data")
	}
}

func TestBidirectionalPingPongInterop(t *testing.T) {
	fx := newFixture(t, core.Config{IOAT: true})
	n := 256 * 1024
	bo := fx.omx.H.Alloc(n)
	bm := fx.mx.H.Alloc(n)
	bo.Fill(1)
	iters := 4
	fx.e.Go("mx-side", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			r := fx.em.IRecv(p, 1, ^uint64(0), bm, 0, n)
			fx.em.Wait(p, r)
			s := fx.em.ISend(p, proto.Addr{Host: "omx-node", EP: 0}, 2, bm, 0, n)
			fx.em.Wait(p, s)
		}
	})
	okRounds := 0
	fx.e.Go("omx-side", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			s := fx.eo.ISend(p, proto.Addr{Host: "mx-node", EP: 0}, 1, bo, 0, n)
			fx.eo.Wait(p, s)
			r := fx.eo.IRecv(p, 2, ^uint64(0), bo, 0, n)
			fx.eo.Wait(p, r)
			okRounds++
		}
	})
	fx.e.RunUntil(fx.e.Now() + 2*sim.Second)
	if okRounds != iters {
		t.Fatalf("completed %d/%d rounds; blocked: %v", okRounds, iters, fx.e.BlockedProcs())
	}
	if !hostmem.Equal(bo, bm) {
		t.Fatal("ping-pong corrupted payload")
	}
}

// newImpairedFixture is newFixture with a misbehaving wire: loss,
// reordering and duplication in both directions, and retransmission
// timeouts tuned down so recovery fits the test budget.
func newImpairedFixture(t *testing.T, im wire.Impairment) *fixture {
	t.Helper()
	e := sim.New()
	p := platform.Clovertown()
	ha := host.New(e, p, "omx-node")
	hb := host.New(e, p, "mx-node")
	ab, ba := wire.Connect(e, p, ha.NIC, hb.NIC)
	ab.SetImpairment(im)
	rev := im
	rev.Seed ^= 0x0F0F
	ba.SetImpairment(rev)
	ha.NIC.SetHose(ab)
	hb.NIC.SetHose(ba)
	fx := &fixture{
		e:   e,
		omx: core.Attach(ha, core.Config{IOAT: true, RetransmitTimeout: 2 * sim.Millisecond}),
		mx:  mxoe.Attach(hb, mxoe.Config{RetransmitTimeout: 2 * sim.Millisecond}),
	}
	fx.eo = fx.omx.OpenEndpoint(0, 2)
	fx.em = fx.mx.OpenEndpoint(0, 2)
	t.Cleanup(e.Close)
	return fx
}

// TestInteropUnderLossAndReorder: the mixed Open-MX ↔ native-MX pair
// must complete verified transfers in both directions across every
// size class at 1 % frame loss plus reordering and duplication —
// both reliability implementations speak the same ack/retransmit
// protocol over the shared wire format.
func TestInteropUnderLossAndReorder(t *testing.T) {
	fx := newImpairedFixture(t, wire.Impairment{
		Seed:        401,
		LossRate:    0.01,
		ReorderRate: 0.05,
		DupRate:     0.01,
	})
	for round := 0; round < 3; round++ {
		for _, n := range []int{16, 4096, 32 * 1024, 300 * 1024} {
			omxToMX(t, fx, n)
			mxToOMX(t, fx, n)
		}
	}
	// The adversary must actually have bitten for this to mean
	// anything, and at least one side must have retransmitted.
	ha, hb := fx.omx.H.NIC.Hose(), fx.mx.H.NIC.Hose()
	if ha.FramesLost+hb.FramesLost == 0 {
		t.Fatal("impairment lost no frames")
	}
	omxRtx := fx.omx.Stats.EagerRetransmits + fx.omx.Stats.PullRetransmits + fx.omx.Stats.RndvRetransmits
	if omxRtx+fx.mx.Stats.Retransmits() == 0 {
		t.Fatal("transfers survived loss with zero retransmissions (impossible)")
	}
}

// TestInteropHeavyLossBothDirections pushes the mixed pair harder:
// 5 % loss with several messages outstanding each way at once.
func TestInteropHeavyLossBothDirections(t *testing.T) {
	fx := newImpairedFixture(t, wire.Impairment{Seed: 811, LossRate: 0.05})
	const count = 6
	n := 64 * 1024
	srcO := make([]*hostmem.Buffer, count)
	dstM := make([]*hostmem.Buffer, count)
	srcM := make([]*hostmem.Buffer, count)
	dstO := make([]*hostmem.Buffer, count)
	for i := 0; i < count; i++ {
		srcO[i], dstM[i] = fx.omx.H.Alloc(n), fx.mx.H.Alloc(n)
		srcM[i], dstO[i] = fx.mx.H.Alloc(n), fx.omx.H.Alloc(n)
		srcO[i].Fill(byte(2*i + 1))
		srcM[i].Fill(byte(2*i + 2))
	}
	doneO, doneM := 0, 0
	fx.e.Go("omx", func(p *sim.Proc) {
		var rs []*mxlib.Request
		for i := 0; i < count; i++ {
			rs = append(rs, fx.eo.ISend(p, proto.Addr{Host: "mx-node", EP: 0}, uint64(i), srcO[i], 0, n))
			rs = append(rs, fx.eo.IRecv(p, uint64(100+i), ^uint64(0), dstO[i], 0, n))
		}
		for _, r := range rs {
			fx.eo.Wait(p, r)
			doneO++
		}
	})
	fx.e.Go("mx", func(p *sim.Proc) {
		var rs []*mxlib.Request
		for i := 0; i < count; i++ {
			rs = append(rs, fx.em.ISend(p, proto.Addr{Host: "omx-node", EP: 0}, uint64(100+i), srcM[i], 0, n))
			rs = append(rs, fx.em.IRecv(p, uint64(i), ^uint64(0), dstM[i], 0, n))
		}
		for _, r := range rs {
			fx.em.Wait(p, r)
			doneM++
		}
	})
	fx.e.RunUntil(fx.e.Now() + 60*sim.Second)
	if doneO != 2*count || doneM != 2*count {
		t.Fatalf("completed omx=%d/%d mx=%d/%d; blocked: %v",
			doneO, 2*count, doneM, 2*count, fx.e.BlockedProcs())
	}
	for i := 0; i < count; i++ {
		if !hostmem.Equal(srcO[i], dstM[i]) {
			t.Fatalf("omx→mx message %d corrupted", i)
		}
		if !hostmem.Equal(srcM[i], dstO[i]) {
			t.Fatalf("mx→omx message %d corrupted", i)
		}
	}
}
