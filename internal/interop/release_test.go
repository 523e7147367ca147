package interop

import (
	"bytes"
	"testing"

	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/mxlib"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

// On a registration-cache stack a rendezvous buffer is pinned twice
// while its transfer runs: once by its cache entry, once by the
// transfer itself. Freeing it then must panic on both sides of the
// transfer, for every pairing of the two stacks: the cache's pin alone
// must not pass for the whole pinning, or the backing would go back
// to the allocator while the pull still reads or deposits into it.
// The failed frees leave the transfer intact; once it completed, each
// buffer frees cleanly and loses its pins.
func TestReleaseDuringRendezvousPanics(t *testing.T) {
	for _, pair := range []struct {
		name           string
		sendMX, recvMX bool
	}{
		{"omx-omx", false, false},
		{"mx-mx", true, true},
		{"omx-mx", false, true},
		{"mx-omx", true, false},
	} {
		t.Run(pair.name, func(t *testing.T) { releaseDuringRendezvous(t, pair.sendMX, pair.recvMX) })
	}
}

func releaseDuringRendezvous(t *testing.T, sendMX, recvMX bool) {
	const n = 1 << 20
	e := sim.New()
	t.Cleanup(e.Close)
	p := platform.Clovertown()
	ha, hb := host.New(e, p, "send-node"), host.New(e, p, "recv-node")
	ab, ba := wire.Connect(e, p, ha.NIC, hb.NIC)
	ha.NIC.SetHose(ab)
	hb.NIC.SetHose(ba)
	snd, _ := openStack(ha, sendMX, true)
	rcv, _ := openStack(hb, recvMX, true)

	src, dst := ha.Alloc(n), hb.Alloc(n)
	src.Fill(0x5A)
	want := bytes.Clone(src.Data)
	var sreq, rreq *mxlib.Request
	e.Go("sender", func(pr *sim.Proc) {
		sreq = snd.ISend(pr, rcv.Addr(), 7, src, 0, n)
		snd.Wait(pr, sreq)
	})
	e.Go("receiver", func(pr *sim.Proc) {
		rreq = rcv.IRecv(pr, 7, ^uint64(0), dst, 0, n)
		rcv.Wait(pr, rreq)
	})
	// Step until the pull has deposited its first bytes: both buffers
	// are then registered and pinned by the transfer.
	for dst.Data[0] != want[0] {
		if rreq != nil && rreq.Done() {
			t.Fatal("receive completed before any mid-transfer check")
		}
		e.RunUntil(e.Now() + sim.Microsecond)
	}
	if sreq.Done() || rreq.Done() {
		t.Fatalf("transfer not in flight: send done %v, receive done %v", sreq.Done(), rreq.Done())
	}
	for _, side := range []struct {
		name string
		m    *hostmem.Memory
		b    *hostmem.Buffer
	}{{"source", ha.Mem, src}, {"destination", hb.Mem, dst}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("freeing the %s of an in-flight rendezvous did not panic", side.name)
				}
			}()
			side.m.Release(side.b)
		}()
	}
	e.RunUntil(e.Now() + sim.Second)
	if !sreq.Done() || !rreq.Done() {
		t.Fatalf("transfer did not finish after the refused frees: send done %v, receive done %v", sreq.Done(), rreq.Done())
	}
	if !bytes.Equal(dst.Data, want) {
		t.Fatalf("delivered %s", firstDiff(dst.Data, want))
	}
	ha.Mem.Release(src)
	hb.Mem.Release(dst)
	if src.Pinned() || dst.Pinned() {
		t.Fatalf("freed buffers still pinned: source %v, destination %v", src.Pinned(), dst.Pinned())
	}
}
