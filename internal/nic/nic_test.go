package nic

import (
	"testing"

	"omxsim/internal/cpu"
	"omxsim/internal/hostmem"
	"omxsim/internal/ioat"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

type fixture struct {
	e    *sim.Engine
	p    *platform.Platform
	a, b *NIC
}

func newPair(t *testing.T) *fixture {
	t.Helper()
	e := sim.New()
	p := platform.Clovertown()
	mkNIC := func(name string) *NIC {
		sys := cpu.NewSystem(e, p)
		mem := hostmem.New(p)
		return New(e, p, sys, mem, name)
	}
	a, b := mkNIC("nicA"), mkNIC("nicB")
	ab, ba := wire.Connect(e, p, a, b)
	a.SetHose(ab)
	b.SetHose(ba)
	f := &fixture{e: e, p: p, a: a, b: b}
	t.Cleanup(e.Close)
	return f
}

func frame(n int, msg any) *wire.Frame {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	return &wire.Frame{Data: data, WireLen: n + 32, Msg: msg}
}

func TestGenericDeliveryThroughBH(t *testing.T) {
	fx := newPair(t)
	var gotLen int
	var gotAt sim.Time
	fx.b.SetRxHandler(func(p *sim.Proc, core *cpu.Core, skb *Skb) {
		gotLen = skb.Len()
		gotAt = p.Now()
		skb.Free()
	})
	fx.a.Transmit(frame(1024, "hi"))
	fx.e.RunUntil(1 * sim.Millisecond)
	if gotLen != 1024 {
		t.Fatalf("handler got %d bytes", gotLen)
	}
	// Latency must include tx DMA, serialization, propagation, rx DMA,
	// IRQ latency and the per-frame skbuff cost.
	min := sim.Duration(fx.p.IRQLatency + fx.p.SkbPerFrameCost + fx.p.WirePropagation)
	if gotAt < min {
		t.Fatalf("delivered at %v, faster than physics %v", gotAt, min)
	}
	if fx.b.RxFrames != 1 || fx.b.RxDrops != 0 {
		t.Fatalf("rx stats: frames=%d drops=%d", fx.b.RxFrames, fx.b.RxDrops)
	}
}

func TestPayloadIntegrityAndDMACold(t *testing.T) {
	fx := newPair(t)
	done := false
	fx.b.SetRxHandler(func(p *sim.Proc, core *cpu.Core, skb *Skb) {
		for i, v := range skb.Buf.Data {
			if v != byte(i) {
				t.Errorf("byte %d = %d", i, v)
				break
			}
		}
		if !skb.Buf.DMACold() {
			t.Error("skbuff not marked DMA-cold")
		}
		skb.Free()
		done = true
	})
	fx.a.Transmit(frame(512, nil))
	fx.e.RunUntil(sim.Millisecond)
	if !done {
		t.Fatal("frame not delivered")
	}
}

func TestFIFOOrderAcrossFrames(t *testing.T) {
	fx := newPair(t)
	var got []int
	fx.b.SetRxHandler(func(p *sim.Proc, core *cpu.Core, skb *Skb) {
		got = append(got, skb.Frame.Msg.(int))
		skb.Free()
	})
	for i := 0; i < 20; i++ {
		fx.a.Transmit(frame(2048, i))
	}
	fx.e.RunUntil(10 * sim.Millisecond)
	if len(got) != 20 {
		t.Fatalf("delivered %d frames", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order: %v", got)
		}
	}
}

func TestSingleInterruptCoalescesBackToBackFrames(t *testing.T) {
	// When the protocol handler is slower than the frame inter-arrival
	// time, frames accumulate while the bottom half runs and are
	// drained NAPI-style without further interrupts.
	fx := newPair(t)
	count := 0
	fx.b.SetRxHandler(func(p *sim.Proc, core *cpu.Core, skb *Skb) {
		core.RunOn(p, cpu.BHProc, 9*sim.Microsecond) // slower than 8 KiB wire time
		count++
		skb.Free()
	})
	for i := 0; i < 10; i++ {
		fx.a.Transmit(frame(8192, i))
	}
	fx.e.RunUntil(10 * sim.Millisecond)
	if count != 10 {
		t.Fatalf("count=%d", count)
	}
	if fx.b.BHRuns >= 5 {
		t.Fatalf("BHRuns=%d, want coalescing", fx.b.BHRuns)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	fx := newPair(t)
	fx.p.RxRingSize = 4 // tiny ring
	blocked := true
	fx.b.SetRxHandler(func(p *sim.Proc, core *cpu.Core, skb *Skb) {
		// Simulate an extremely slow protocol handler.
		if blocked {
			core.RunOn(p, cpu.BHProc, sim.Millisecond)
		}
		skb.Free()
	})
	for i := 0; i < 50; i++ {
		fx.a.Transmit(frame(8192, i))
	}
	fx.e.RunUntil(100 * sim.Millisecond)
	if fx.b.RxDrops == 0 {
		t.Fatal("expected ring overflow drops")
	}
	// The wire counters prove where every frame went: all 50 made it
	// onto the wire (the link itself is perfect) and every delivered
	// frame was either received or ring-dropped — no timing
	// inference, no frame counted twice.
	ws := fx.a.Hose().Stats()
	if ws.FramesSent != 50 || ws.FramesDropped != 0 || ws.FramesLost != 0 || ws.TailDrops != 0 {
		t.Fatalf("wire stats: %+v, want 50 sent and no wire-level drops", ws)
	}
	if fx.b.RxFrames+fx.b.RxDrops != ws.FramesSent {
		t.Fatalf("rx %d + ringdrops %d != wire-delivered %d", fx.b.RxFrames, fx.b.RxDrops, ws.FramesSent)
	}
}

// TestSwitchTailDropAndRingDropDisjoint: congestion loss at the
// switch and ring-overflow loss at the NIC are different events on
// different frames — a tail-dropped frame never reaches the NIC, so
// the two counters can never double-count. The accounting identity
// forwarded == tail-dropped + ring-dropped + received must hold
// exactly.
func TestSwitchTailDropAndRingDropDisjoint(t *testing.T) {
	e := sim.New()
	p := platform.Clovertown()
	p.RxRingSize = 4
	defer e.Close()
	mk := func(name string) *NIC {
		return New(e, p, cpu.NewSystem(e, p), hostmem.New(p), name)
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	sw := wire.NewSwitch(e, p)
	sw.OutputQueueFrames = 2
	ha := sw.Attach(a)
	sw.Attach(b)
	hc := sw.Attach(c)
	a.SetHose(ha)
	c.SetHose(hc)
	blocked := true
	b.SetRxHandler(func(pr *sim.Proc, core *cpu.Core, skb *Skb) {
		if blocked {
			core.RunOn(pr, cpu.BHProc, sim.Millisecond) // overwhelm the ring
		}
		skb.Free()
	})
	// Incast from two senders: the switch output queue overflows AND
	// the slow receiver's ring overflows.
	for i := 0; i < 40; i++ {
		fa := frame(8192, i)
		fa.DstAddr = "b"
		a.Transmit(fa)
		fc := frame(8192, 100+i)
		fc.DstAddr = "b"
		c.Transmit(fc)
	}
	e.RunUntil(200 * sim.Millisecond)
	out := sw.OutHose("b").Stats()
	if out.TailDrops == 0 {
		t.Fatal("no switch tail drops under incast")
	}
	if b.RxDrops == 0 {
		t.Fatal("no NIC ring drops behind the slow handler")
	}
	if sw.FramesForwarded != 80 || sw.FramesUnknown != 0 {
		t.Fatalf("forwarded %d unknown %d, want 80/0", sw.FramesForwarded, sw.FramesUnknown)
	}
	// Exact conservation: every forwarded frame was tail-dropped,
	// ring-dropped, or received — once.
	if out.TailDrops+b.RxDrops+b.RxFrames != sw.FramesForwarded {
		t.Fatalf("taildrop %d + ringdrop %d + rx %d != forwarded %d (double count?)",
			out.TailDrops, b.RxDrops, b.RxFrames, sw.FramesForwarded)
	}
	// And the wire's own view agrees: frames that left the output
	// port equal delivered frames.
	if out.FramesSent != b.RxFrames+b.RxDrops {
		t.Fatalf("port sent %d != NIC saw %d", out.FramesSent, b.RxFrames+b.RxDrops)
	}
}

func TestBHRunsOnConfiguredCore(t *testing.T) {
	fx := newPair(t)
	fx.b.IRQCore = 3
	done := false
	fx.b.SetRxHandler(func(p *sim.Proc, core *cpu.Core, skb *Skb) {
		if core.ID != 3 {
			t.Errorf("BH on core %d, want 3", core.ID)
		}
		skb.Free()
		done = true
	})
	fx.a.Transmit(frame(64, nil))
	fx.e.RunUntil(sim.Millisecond)
	if !done {
		t.Fatal("not delivered")
	}
	if fx.b.Sys.Core(3).BusyNs(cpu.BHProc) == 0 {
		t.Fatal("no BH time accounted on core 3")
	}
}

func TestFirmwareModeBypassesHost(t *testing.T) {
	fx := newPair(t)
	var got *wire.Frame
	var at sim.Time
	fx.b.SetFirmware(func(f *wire.Frame) { got = f; at = fx.e.Now() })
	fx.a.Transmit(frame(256, "fw"))
	fx.e.RunUntil(sim.Millisecond)
	if got == nil {
		t.Fatal("firmware handler not called")
	}
	if fx.b.Sys.TotalBusy() != 0 {
		t.Fatal("firmware mode consumed host CPU")
	}
	// No IRQ latency in the path.
	if at > sim.Time(fx.p.IRQLatency)*3 {
		t.Fatalf("firmware delivery at %v, too slow", at)
	}
}

func TestWireSerializationPacing(t *testing.T) {
	// Two 8 KiB frames: the second arrives ≈ one serialization time
	// after the first (wire is the pacing element).
	fx := newPair(t)
	var times []sim.Time
	fx.b.SetFirmware(func(f *wire.Frame) { times = append(times, fx.e.Now()) })
	fx.a.Transmit(frame(8192, 0))
	fx.a.Transmit(frame(8192, 1))
	fx.e.RunUntil(sim.Millisecond)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	ser := fx.a.Hose().SerializeTime(8192 + 32)
	gap := times[1] - times[0]
	if gap < ser-200 || gap > ser+1500 {
		t.Fatalf("inter-frame gap %v, want ≈ serialization %v", gap, ser)
	}
}

func TestLossInjection(t *testing.T) {
	fx := newPair(t)
	n := 0
	fx.a.Hose().Drop = func(f *wire.Frame) bool {
		n++
		return n%2 == 1 // drop every other frame
	}
	count := 0
	fx.b.SetRxHandler(func(p *sim.Proc, core *cpu.Core, skb *Skb) {
		count++
		skb.Free()
	})
	for i := 0; i < 10; i++ {
		fx.a.Transmit(frame(128, i))
	}
	fx.e.RunUntil(10 * sim.Millisecond)
	if count != 5 {
		t.Fatalf("delivered %d, want 5", count)
	}
	if fx.a.Hose().FramesDropped != 5 {
		t.Fatalf("dropped %d", fx.a.Hose().FramesDropped)
	}
}

func TestSkbDoubleFreePanics(t *testing.T) {
	fx := newPair(t)
	fx.b.SetRxHandler(func(p *sim.Proc, core *cpu.Core, skb *Skb) {
		skb.Free()
		defer func() {
			if recover() == nil {
				t.Error("no panic on double free")
			}
		}()
		skb.Free()
	})
	fx.a.Transmit(frame(64, nil))
	fx.e.RunUntil(sim.Millisecond)
}

func TestSkbLiveAccounting(t *testing.T) {
	fx := newPair(t)
	var held []*Skb
	fx.b.SetRxHandler(func(p *sim.Proc, core *cpu.Core, skb *Skb) {
		held = append(held, skb) // protocol keeps skbuffs (pending copy)
	})
	for i := 0; i < 5; i++ {
		fx.a.Transmit(frame(64, i))
	}
	fx.e.RunUntil(sim.Millisecond)
	if fx.b.SkbsLive() != 5 {
		t.Fatalf("live = %d, want 5", fx.b.SkbsLive())
	}
	for _, s := range held {
		s.Free()
	}
	if fx.b.SkbsLive() != 0 {
		t.Fatalf("live = %d after frees", fx.b.SkbsLive())
	}
}

func TestSwitchForwarding(t *testing.T) {
	e := sim.New()
	p := platform.Clovertown()
	defer e.Close()
	mk := func(name string) *NIC {
		return New(e, p, cpu.NewSystem(e, p), hostmem.New(p), name)
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	sw := wire.NewSwitch(e, p)
	a.SetHose(sw.Attach(a))
	b.SetHose(sw.Attach(b))
	c.SetHose(sw.Attach(c))
	var gotB, gotC int
	b.SetFirmware(func(f *wire.Frame) { gotB++ })
	c.SetFirmware(func(f *wire.Frame) { gotC++ })
	fa := frame(100, nil)
	fa.DstAddr = "b"
	a.Transmit(fa)
	fc := frame(100, nil)
	fc.DstAddr = "c"
	a.Transmit(fc)
	unknown := frame(100, nil)
	unknown.DstAddr = "nope"
	a.Transmit(unknown)
	e.RunUntil(sim.Millisecond)
	if gotB != 1 || gotC != 1 {
		t.Fatalf("gotB=%d gotC=%d", gotB, gotC)
	}
	if sw.FramesUnknown != 1 {
		t.Fatalf("unknown=%d", sw.FramesUnknown)
	}
}

// Freeing an skbuff releases its payload backing for a later deposit
// to reuse. With I/OAT copying out of skbuffs asynchronously, a
// backing must not be handed to a new frame while a descriptor that
// reads it is still queued. Here a slow engine and a small ring keep
// many skbuffs pending and the ring overflowing; every skbuff is freed
// only when its copy retires. No arriving frame may land in a backing
// an unretired descriptor still reads, backings must actually be
// reused, and every delivered payload must arrive intact.
func TestSkbBackingNotReusedBeforeIOATRetires(t *testing.T) {
	e := sim.New()
	t.Cleanup(e.Close)
	p := platform.Clovertown()
	p.RxRingSize = 8
	p.IOATEngineRate /= 4
	mkNIC := func(name string) *NIC {
		return New(e, p, cpu.NewSystem(e, p), hostmem.New(p), name)
	}
	a, b := mkNIC("nicA"), mkNIC("nicB")
	ab, ba := wire.Connect(e, p, a, b)
	a.SetHose(ab)
	b.SetHose(ba)

	const frames, size = 64, 8192
	eng := ioat.NewEngine(e, p)
	ch := eng.Channel(0)
	dst := b.Mem.Alloc(frames * size)
	copied := make([]bool, frames)
	reading := map[*byte]bool{} // backings unretired descriptors read
	seen := map[*byte]bool{}
	reuses := 0
	b.SetRxHandler(func(pr *sim.Proc, core *cpu.Core, skb *Skb) {
		i := skb.Frame.Msg.(int)
		back := &skb.Buf.Data[0]
		if reading[back] {
			t.Errorf("frame %d deposited into a backing an unretired I/OAT copy still reads", i)
		}
		if seen[back] {
			reuses++
		}
		seen[back], reading[back] = true, true
		// A bottom half slower than the wire fills the ring.
		core.RunOn(pr, cpu.BHProc, 10*sim.Microsecond)
		core.RunOn(pr, cpu.IOATSubmit, eng.SubmitCost(1))
		seq := ch.Submit(ioat.CopyReq{Dst: dst, DstOff: i * size, Src: skb.Buf, N: size})
		ch.NotifyAt(seq, func() {
			delete(reading, back)
			copied[i] = true
			skb.Free()
		})
	})
	pattern := func(i, j int) byte { return byte(i*7 + j*131) }
	for i := range frames {
		data := make([]byte, size)
		for j := range data {
			data[j] = pattern(i, j)
		}
		a.Transmit(&wire.Frame{Data: data, WireLen: size + 32, Msg: i})
	}
	e.RunUntil(100 * sim.Millisecond)

	if b.RxDrops == 0 {
		t.Fatal("ring never overflowed: no pressure")
	}
	if reuses == 0 {
		t.Fatal("no skbuff backing was ever reused")
	}
	if b.SkbsLive() != 0 || len(reading) != 0 {
		t.Fatalf("%d skbuffs live, %d copies unretired after the run", b.SkbsLive(), len(reading))
	}
	delivered := 0
	for i, ok := range copied {
		if !ok {
			continue
		}
		delivered++
		for j, v := range dst.Data[i*size : (i+1)*size] {
			if v != pattern(i, j) {
				t.Fatalf("frame %d byte %d = %#x, want %#x", i, j, v, pattern(i, j))
			}
		}
	}
	if int64(delivered) != b.RxFrames {
		t.Fatalf("%d frames copied out, %d received", delivered, b.RxFrames)
	}
}

// Reading an skbuff's payload after Free panics: the backing belongs
// to the host memory again.
func TestSkbPayloadUnreadableAfterFree(t *testing.T) {
	fx := newPair(t)
	fx.b.SetRxHandler(func(p *sim.Proc, core *cpu.Core, skb *Skb) {
		buf := skb.Buf
		skb.Free()
		if buf.Data != nil {
			t.Error("freed skbuff still exposes its payload")
		}
		defer func() {
			if recover() == nil {
				t.Error("no panic reading a freed skbuff's payload")
			}
		}()
		_ = buf.Data[0]
	})
	fx.a.Transmit(frame(64, nil))
	fx.e.RunUntil(sim.Millisecond)
}
