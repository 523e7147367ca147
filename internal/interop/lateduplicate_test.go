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

// openStack attaches one stack to h and opens endpoint 0. It returns
// the endpoint and a reader of the duplicate fragments the stack's
// receive dedup has dropped.
func openStack(h *host.Host, mx bool) (mxEndpoint, func() int64) {
	if mx {
		s := mxoe.Attach(h, mxoe.Config{RetransmitTimeout: 2 * sim.Millisecond})
		return s.OpenEndpoint(0, 2), func() int64 { return s.Stats.DupFrags }
	}
	s := core.Attach(h, core.Config{IOAT: true, RetransmitTimeout: 2 * sim.Millisecond})
	return s.OpenEndpoint(0, 2), func() int64 { return s.Stats.DupFrags }
}

// Frames reference their sender's pinned source buffer instead of
// owning a copy, so a duplicate delivered after the send completed
// carries whatever the application wrote there since. The receiver's
// dedup is the only thing between such a late duplicate and user
// data. Over a link that duplicates, reorders and jitters frames, each
// sender here poisons its source the moment Wait returns and then
// sends a second message with the same match bits to the same peer:
// both deliveries must still be byte-exact, for every pairing of the
// two stacks and for tiny, multi-fragment eager and rendezvous sizes.
func TestLateDuplicateCannotReadReusedSource(t *testing.T) {
	const poison = 0xEE
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
			snd, sndDups := openStack(ha, pair.sendMX)
			rcv, rcvDups := openStack(hb, pair.recvMX)

			sizes := []int{16, 3*proto.MediumFragSize + 100, 100 * 1024}
			const rounds = 4
			var srcs, dsts []*hostmem.Buffer
			var want [][]byte
			for r := 0; r < rounds; r++ {
				for _, n := range sizes {
					for range 2 {
						src, dst := ha.Alloc(n), hb.Alloc(n)
						src.Fill(byte(len(srcs)*37 + 1))
						srcs, dsts = append(srcs, src), append(dsts, dst)
						want = append(want, bytes.Clone(src.Data))
					}
				}
			}
			// The receiver answers each message with an empty go-ahead
			// before the sender moves on: MX eager sends complete at
			// post time, and two same-match messages in flight at once
			// could legitimately be matched in either arrival order.
			const goAhead = 1 << 40
			sent, got := 0, 0
			e.Go("sender", func(pr *sim.Proc) {
				for i, src := range srcs {
					n := src.Size()
					snd.Wait(pr, snd.ISend(pr, rcv.Addr(), uint64(n), src, 0, n))
					for j := range src.Data {
						src.Data[j] = poison
					}
					snd.Wait(pr, snd.IRecv(pr, goAhead, ^uint64(0), nil, 0, 0))
					sent = i + 1
				}
			})
			e.Go("receiver", func(pr *sim.Proc) {
				for _, dst := range dsts {
					n := dst.Size()
					rcv.Wait(pr, rcv.IRecv(pr, uint64(n), ^uint64(0), dst, 0, n))
					got++
					rcv.Wait(pr, rcv.ISend(pr, snd.Addr(), goAhead, nil, 0, 0))
				}
			})
			e.RunUntil(e.Now() + 10*sim.Second)
			if sent != len(srcs) || got != len(dsts) {
				t.Fatalf("sent %d, received %d of %d; blocked: %v", sent, got, len(srcs), e.BlockedProcs())
			}
			for i, dst := range dsts {
				if !bytes.Equal(dst.Data, want[i]) {
					t.Fatalf("message %d (%d bytes) delivered %s", i, dst.Size(), firstDiff(dst.Data, want[i]))
				}
			}
			// The late duplicates must actually have been there.
			if ab.FramesDuped == 0 || sndDups()+rcvDups() == 0 {
				t.Fatalf("no duplicate reached a receiver (wire duped %d, dedup dropped %d)",
					ab.FramesDuped, sndDups()+rcvDups())
			}
		})
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
