package mxlib

import (
	"bytes"
	"testing"

	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/platform"
	"omxsim/sim"
)

const fragSize = proto.MediumFragSize

// fixture is one library on a single host. Every eager fragment's
// payload is copied from the same pattern buffer at the fragment's
// message offset, so a correctly delivered message of n bytes equals
// the pattern's first n bytes.
type fixture struct {
	e       *sim.Engine
	h       *host.Host
	lib     *Lib[*Frag]
	pattern *hostmem.Buffer
}

func newFixture(t *testing.T, mergePrefix bool) *fixture {
	t.Helper()
	e := sim.New()
	t.Cleanup(e.Close)
	fx := &fixture{e: e, h: host.New(e, platform.Clovertown(), "h")}
	fx.pattern = fx.h.Alloc(8 * fragSize)
	fx.pattern.Fill(7)
	copyFrag := func(f *Frag, dst *hostmem.Buffer, off, n int) sim.Duration {
		return fx.h.Copy.Memcpy(dst, off, fx.pattern, f.Offset, n, 0)
	}
	handle := func(p *sim.Proc, f *Frag) { fx.lib.EagerFrag(p, f) }
	fx.lib = New(fx.h, 0, mergePrefix, copyFrag, handle)
	return fx
}

// run executes fn as the endpoint's process and drains the engine.
func (fx *fixture) run(fn func(p *sim.Proc)) {
	fx.e.Go("app", fn)
	fx.e.Run()
}

// frag builds fragment id of an eager message of msgLen bytes.
func frag(host string, seq uint32, match uint64, msgLen, id int) *Frag {
	off := id * fragSize
	n := min(fragSize, msgLen-off)
	return &Frag{
		Src: proto.Addr{Host: host}, Match: match, Seq: seq, MsgLen: msgLen,
		ID: id, Count: proto.MediumFragsOf(msgLen), Offset: off, Len: n, Slot: -1,
	}
}

// want returns the bytes a buffer of size bytes should hold after the
// pattern ranges [off, off+n) were copied into it.
func (fx *fixture) want(size int, runs ...proto.Run) []byte {
	b := make([]byte, size)
	for _, r := range runs {
		copy(b[r.Off:r.Off+r.N], fx.pattern.Data[r.Off:r.Off+r.N])
	}
	return b
}

func TestUnexpectedConsumedInArrivalOrder(t *testing.T) {
	type msg struct {
		host  string
		seq   uint32
		match uint64
		frags int // fragments delivered; fewer than the message's means still arriving
	}
	for _, tc := range []struct {
		name        string
		arrivals    []msg
		match, mask uint64
		wantFrom    string // "" means the receive is posted, unmatched
		wantMatch   uint64
	}{
		{"first arrival wins over lower source", []msg{{"b", 1, 5, 2}, {"a", 0, 5, 2}}, 0, 0, "b", 5},
		{"non-matching arrival skipped", []msg{{"a", 0, 6, 2}, {"b", 0, 5, 2}}, 5, ^uint64(0), "b", 5},
		{"masked match", []msg{{"a", 0, 0x1100, 2}, {"b", 0, 0x2200, 2}}, 0x2000, 0xF000, "b", 0x2200},
		{"complete message beats an earlier partial one", []msg{{"a", 0, 5, 1}, {"b", 0, 5, 2}}, 5, ^uint64(0), "b", 5},
		{"nothing matches", []msg{{"a", 0, 6, 2}}, 5, ^uint64(0), "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t, true)
			msgLen := 2 * fragSize
			dst := fx.h.Alloc(msgLen)
			var r *Request
			fx.run(func(p *sim.Proc) {
				for _, m := range tc.arrivals {
					for id := 0; id < m.frags; id++ {
						fx.lib.EagerFrag(p, frag(m.host, m.seq, m.match, msgLen, id))
					}
				}
				r = fx.lib.IRecv(p, tc.match, tc.mask, dst, 0, msgLen)
			})
			if tc.wantFrom == "" {
				if r.Done() || len(fx.lib.posted) != 1 {
					t.Fatalf("receive done=%v posted=%d, want it posted", r.Done(), len(fx.lib.posted))
				}
				return
			}
			if !r.Done() || r.Sender().Host != tc.wantFrom || r.Match() != tc.wantMatch || r.Len() != msgLen {
				t.Fatalf("receive done=%v from %q match %#x len %d, want %q %#x %d",
					r.Done(), r.Sender().Host, r.Match(), r.Len(), tc.wantFrom, tc.wantMatch, msgLen)
			}
			if !bytes.Equal(dst.Data, fx.pattern.Data[:msgLen]) {
				t.Fatal("payload corrupted")
			}
			if len(fx.lib.posted) != 0 || len(fx.lib.ux) != len(tc.arrivals)-len(fx.lib.asm)-1 {
				t.Fatalf("posted=%d ux=%d after consuming one of %d arrivals", len(fx.lib.posted), len(fx.lib.ux), len(tc.arrivals))
			}
		})
	}
}

func TestClaimLowestSourceSequence(t *testing.T) {
	type key struct {
		host string
		seq  uint32
	}
	for _, tc := range []struct {
		name    string
		created []key
		want    key
	}{
		{"created ascending", []key{{"a", 2}, {"a", 5}, {"b", 1}}, key{"a", 2}},
		{"created descending", []key{{"b", 1}, {"a", 5}, {"a", 2}}, key{"a", 2}},
		{"source before sequence", []key{{"b", 0}, {"a", 9}}, key{"a", 9}},
		{"serial order across wraparound", []key{{"a", 1}, {"a", 0xFFFFFFFF}}, key{"a", 0xFFFFFFFF}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t, true)
			msgLen := 3 * fragSize
			dst := fx.h.Alloc(msgLen)
			var r *Request
			fx.run(func(p *sim.Proc) {
				for _, k := range tc.created {
					fx.lib.EagerFrag(p, frag(k.host, k.seq, 5, msgLen, 0))
				}
				r = fx.lib.IRecv(p, 0, 0, dst, 0, msgLen)
				// The claimed message completes into r; the others
				// complete unexpected.
				for _, k := range tc.created {
					for id := 1; id < 3; id++ {
						fx.lib.EagerFrag(p, frag(k.host, k.seq, 5, msgLen, id))
					}
				}
			})
			if !r.Done() || r.Sender().Host != tc.want.host {
				t.Fatalf("receive done=%v from %q, want %v", r.Done(), r.Sender().Host, tc.want)
			}
			if got := len(fx.lib.ux); got != len(tc.created)-1 {
				t.Fatalf("%d unexpected messages, want %d", got, len(tc.created)-1)
			}
			if !bytes.Equal(dst.Data, fx.pattern.Data[:msgLen]) {
				t.Fatal("claimed payload corrupted")
			}
		})
	}
}

func TestTruncatedToPostedBuffer(t *testing.T) {
	for _, tc := range []struct {
		name      string
		msgLen, n int
		claimed   bool // first fragment arrives before the post
	}{
		{"single fragment", 1000, 400, false},
		{"fragment straddles the end", 3 * fragSize, fragSize + 100, false},
		{"fragment wholly past the end", 3 * fragSize, fragSize, false},
		{"zero-byte receive", 2 * fragSize, 0, false},
		{"claimed, straddling", 3 * fragSize, fragSize + 100, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t, true)
			const guard = 64 // bytes past the receive that must stay untouched
			dst := fx.h.Alloc(tc.n + guard)
			frags := proto.MediumFragsOf(tc.msgLen)
			var r *Request
			fx.run(func(p *sim.Proc) {
				first := 0
				if tc.claimed {
					fx.lib.EagerFrag(p, frag("a", 0, 1, tc.msgLen, 0))
					first = 1
				}
				r = fx.lib.IRecv(p, 1, ^uint64(0), dst, 0, tc.n)
				for id := first; id < frags; id++ {
					fx.lib.EagerFrag(p, frag("a", 0, 1, tc.msgLen, id))
				}
			})
			if !r.Done() || r.Len() != tc.n {
				t.Fatalf("receive done=%v len %d, want %d", r.Done(), r.Len(), tc.n)
			}
			if !bytes.Equal(dst.Data, fx.want(tc.n+guard, proto.Run{N: tc.n})) {
				t.Fatal("truncated receive wrote the wrong bytes")
			}
		})
	}
}

// A receive claiming a partial message copies what already arrived:
// Open-MX (mergePrefix) in one memcpy when the arrivals form a
// hole-free prefix, MX one memcpy per fragment; beyond a hole both
// copy each arrived fragment at its own offset.
func TestClaimCopyMergedPrefixVersusPerFragment(t *testing.T) {
	for _, tc := range []struct {
		name    string
		arrived []int // fragment ids that beat the post
		merged  bool  // Open-MX takes one merged copy, so its claim cost differs from MX's
	}{
		{"hole-free prefix", []int{0, 1, 2}, true},
		{"hole after the first fragment", []int{0, 2, 3}, false},
		{"first fragment missing", []int{1, 3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const frags = 4
			msgLen := frags * fragSize
			var cost [2]sim.Duration
			for i, mergePrefix := range []bool{true, false} {
				fx := newFixture(t, mergePrefix)
				dst := fx.h.Alloc(msgLen)
				var runs []proto.Run
				for _, id := range tc.arrived {
					runs = append(runs, proto.Run{Off: id * fragSize, N: fragSize})
				}
				var r *Request
				fx.run(func(p *sim.Proc) {
					for _, id := range tc.arrived {
						fx.lib.EagerFrag(p, frag("a", 0, 1, msgLen, id))
					}
					t0 := p.Now()
					r = fx.lib.IRecv(p, 1, ^uint64(0), dst, 0, msgLen)
					cost[i] = p.Now() - t0
					if !bytes.Equal(dst.Data, fx.want(msgLen, runs...)) {
						t.Errorf("mergePrefix=%v: claim copied the wrong bytes", mergePrefix)
					}
					for id := 0; id < frags; id++ {
						fx.lib.EagerFrag(p, frag("a", 0, 1, msgLen, id))
					}
				})
				if !r.Done() || !bytes.Equal(dst.Data, fx.pattern.Data[:msgLen]) {
					t.Fatalf("mergePrefix=%v: claimed message incomplete or corrupted", mergePrefix)
				}
			}
			if merged, perFrag := cost[0], cost[1]; (merged != perFrag) != tc.merged {
				t.Fatalf("claim cost with mergePrefix %v, without %v: want different plans %v", merged, perFrag, tc.merged)
			}
		})
	}
}

// A message's temporary storage is released once the receive copied
// it out, so the next message of its size reuses the backing: an
// unexpected eager message's assembly buffer, and a whole message
// arriving in a segment the sender allocated (MX shared memory). Each
// message carries its own bytes, and each delivery is byte-exact.
func TestDeliveredTemporaryBackingReused(t *testing.T) {
	const msgLen = 3 * fragSize
	for _, tc := range []struct {
		name   string
		arrive func(fx *fixture, p *sim.Proc, seq uint32, match uint64)
	}{
		{"unexpected eager", func(fx *fixture, p *sim.Proc, seq uint32, match uint64) {
			for id := 0; id < proto.MediumFragsOf(msgLen); id++ {
				fx.lib.EagerFrag(p, frag("a", seq, match, msgLen, id))
			}
		}},
		{"shared-memory segment", func(fx *fixture, p *sim.Proc, seq uint32, match uint64) {
			seg := fx.h.Alloc(msgLen)
			fx.h.Copy.Memcpy(seg, 0, fx.pattern, 0, msgLen, 0)
			fx.lib.Arrive(p, &Message{Src: proto.Addr{Host: "a"}, Match: match, Len: msgLen, Tmp: seg})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t, true)
			var backing [2]*byte
			fx.run(func(p *sim.Proc) {
				for i := 0; i < 2; i++ {
					fx.pattern.Fill(byte(11 * (i + 1)))
					match := uint64(i + 1)
					tc.arrive(fx, p, uint32(i), match)
					if len(fx.lib.ux) != 1 || fx.lib.ux[0].Tmp == nil {
						t.Fatalf("message %d: %d unexpected messages, want 1 held in temporary storage", i, len(fx.lib.ux))
					}
					tmp := fx.lib.ux[0].Tmp
					backing[i] = &tmp.Data[0]
					dst := fx.h.Alloc(msgLen)
					r := fx.lib.IRecv(p, match, ^uint64(0), dst, 0, msgLen)
					if !r.Done() || !bytes.Equal(dst.Data, fx.pattern.Data[:msgLen]) {
						t.Fatalf("message %d: done %v, delivered bytes differ from the sent ones", i, r.Done())
					}
					if tmp.Data != nil {
						t.Fatalf("message %d: temporary storage not released after delivery", i)
					}
				}
			})
			if backing[0] != backing[1] {
				t.Fatal("the second message did not reuse the first one's released backing")
			}
		})
	}
}
