package interop

import (
	"bytes"
	"fmt"
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

// mxEndpoint is the MX API both stacks' endpoints implement.
type mxEndpoint interface {
	ISend(p *sim.Proc, dst proto.Addr, match uint64, buf *hostmem.Buffer, off, n int) *mxlib.Request
	IRecv(p *sim.Proc, match, mask uint64, buf *hostmem.Buffer, off, n int) *mxlib.Request
	Wait(p *sim.Proc, r *mxlib.Request)
	Addr() proto.Addr
}

// openStack attaches one stack to h, with the registration cache on
// or off, and opens endpoint 0. It returns the endpoint and a reader
// of the duplicate fragments the stack's receive dedup has dropped.
func openStack(h *host.Host, mx, regCache bool) (mxEndpoint, func() int64) {
	if mx {
		s := mxoe.Attach(h, mxoe.Config{RetransmitTimeout: 2 * sim.Millisecond, RegCache: regCache})
		return s.OpenEndpoint(0, 2), func() int64 { return s.Stats.DupFrags }
	}
	s := core.Attach(h, core.Config{IOAT: true, RetransmitTimeout: 2 * sim.Millisecond, RegCache: regCache})
	return s.OpenEndpoint(0, 2), func() int64 { return s.Stats.DupFrags }
}

// Frames reference their sender's pinned source buffer instead of
// owning a copy, so a duplicate delivered after the send completed
// carries whatever the application wrote there since. The receiver's
// dedup is the only thing between such a late duplicate and user
// data. Over a link that duplicates, reorders and jitters frames, each
// sender here sends pairs of messages with the same match bits to the
// same peer, for every pairing of the two stacks and for tiny,
// multi-fragment eager and rendezvous sizes, with the source reused in
// one of two ways the moment Wait returns:
//
//   - "poisoned": the application overwrites its source buffer;
//   - "released temporary": as a collective does with its per-call
//     temporaries on a registration-cache world, each message lives in
//     a buffer allocated for it and freed after Wait (which drops its
//     registration), so the next message of that size is written into
//     the same backing while duplicates of the old frames are still in
//     flight. The receiver likewise checks and frees each destination.
//
// Every delivery must be byte-exact.
func TestLateDuplicateCannotReadReusedSource(t *testing.T) {
	for _, pair := range []struct {
		name           string
		sendMX, recvMX bool
	}{
		{"omx-omx", false, false},
		{"mx-mx", true, true},
		{"omx-mx", false, true},
		{"mx-omx", true, false},
	} {
		t.Run(pair.name, func(t *testing.T) {
			t.Run("poisoned", func(t *testing.T) { lateDuplicates(t, pair.sendMX, pair.recvMX, false) })
			t.Run("released temporary", func(t *testing.T) { lateDuplicates(t, pair.sendMX, pair.recvMX, true) })
		})
	}
}

// lateDuplicates runs one case of TestLateDuplicateCannotReadReusedSource.
func lateDuplicates(t *testing.T, sendMX, recvMX, release bool) {
	const poison = 0xEE
	e := sim.New()
	t.Cleanup(e.Close)
	p := platform.Clovertown()
	ha, hb := host.New(e, p, "send-node"), host.New(e, p, "recv-node")
	ab, ba := wire.Connect(e, p, ha.NIC, hb.NIC)
	im := wire.Impairment{Seed: 907, DupRate: 0.3, ReorderRate: 0.2, JitterMax: 5 * sim.Microsecond}
	ab.SetImpairment(im)
	im.Seed ^= 0x0F0F
	ba.SetImpairment(im)
	ha.NIC.SetHose(ab)
	hb.NIC.SetHose(ba)
	snd, sndDups := openStack(ha, sendMX, release)
	rcv, rcvDups := openStack(hb, recvMX, release)

	sizes := []int{16, 3*proto.MediumFragSize + 100, 100 * 1024}
	const rounds = 4
	var want [][]byte
	for r := 0; r < rounds; r++ {
		for _, n := range sizes {
			for range 2 {
				b := ha.Alloc(n)
				b.Fill(byte(len(want)*37 + 1))
				want = append(want, bytes.Clone(b.Data))
				if release {
					ha.Mem.Release(b)
				}
			}
		}
	}
	// alloc returns message i's buffer on h. With release, it is a
	// fresh temporary that must sit on the backing the last released
	// buffer of its size left behind; reused counts those.
	last := map[*hostmem.Memory]map[int]*byte{ha.Mem: {}, hb.Mem: {}}
	reused := map[*hostmem.Memory]int{}
	alloc := func(h *host.Host, n int) *hostmem.Buffer {
		b := h.Alloc(n)
		if back := last[h.Mem][n]; back != nil && back == &b.Data[0] {
			reused[h.Mem]++
		}
		last[h.Mem][n] = &b.Data[0]
		return b
	}
	var srcs, dsts []*hostmem.Buffer
	if !release {
		for i := range want {
			src := ha.Alloc(len(want[i]))
			copy(src.Data, want[i])
			srcs, dsts = append(srcs, src), append(dsts, hb.Alloc(len(want[i])))
		}
	}
	// The receiver answers each message with an empty go-ahead
	// before the sender moves on: MX eager sends complete at
	// post time, and two same-match messages in flight at once
	// could legitimately be matched in either arrival order.
	const goAhead = 1 << 40
	sent, got := 0, 0
	e.Go("sender", func(pr *sim.Proc) {
		for i := range want {
			n := len(want[i])
			var src *hostmem.Buffer
			if release {
				src = alloc(ha, n)
				copy(src.Data, want[i])
			} else {
				src = srcs[i]
			}
			snd.Wait(pr, snd.ISend(pr, rcv.Addr(), uint64(n), src, 0, n))
			if release {
				ha.Mem.Release(src)
			} else {
				for j := range src.Data {
					src.Data[j] = poison
				}
			}
			snd.Wait(pr, snd.IRecv(pr, goAhead, ^uint64(0), nil, 0, 0))
			sent = i + 1
		}
	})
	e.Go("receiver", func(pr *sim.Proc) {
		for i := range want {
			n := len(want[i])
			var dst *hostmem.Buffer
			if release {
				dst = alloc(hb, n)
			} else {
				dst = dsts[i]
			}
			rcv.Wait(pr, rcv.IRecv(pr, uint64(n), ^uint64(0), dst, 0, n))
			if !bytes.Equal(dst.Data, want[i]) {
				t.Errorf("message %d (%d bytes) delivered %s", i, n, firstDiff(dst.Data, want[i]))
			}
			if release {
				hb.Mem.Release(dst)
			}
			got++
			rcv.Wait(pr, rcv.ISend(pr, snd.Addr(), goAhead, nil, 0, 0))
		}
	})
	e.RunUntil(e.Now() + 10*sim.Second)
	if sent != len(want) || got != len(want) {
		t.Fatalf("sent %d, received %d of %d; blocked: %v", sent, got, len(want), e.BlockedProcs())
	}
	// Every message after the first of its size was written into the
	// backing its predecessor released. (Receive-side skbuffs draw on
	// the same spare backings, so the receiver's count is not exact.)
	if w := len(want) - len(sizes); release && (reused[ha.Mem] != w || reused[hb.Mem] == 0) {
		t.Fatalf("sender reused %d backings, want %d; receiver %d, want some", reused[ha.Mem], w, reused[hb.Mem])
	}
	// The late duplicates must actually have been there.
	if ab.FramesDuped == 0 || sndDups()+rcvDups() == 0 {
		t.Fatalf("no duplicate reached a receiver (wire duped %d, dedup dropped %d)",
			ab.FramesDuped, sndDups()+rcvDups())
	}
}

// firstDiff describes where got first departs from want.
func firstDiff(got, want []byte) string {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("byte %d = %#x, want %#x", i, got[i], want[i])
		}
	}
	return "intact"
}
