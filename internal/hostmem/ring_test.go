package hostmem

import (
	"fmt"
	"reflect"
	"testing"

	"omxsim/platform"
)

// Slots come back freed-first (last in, first out), then fresh in
// ascending order, and the ring reports -1 once every slot is out.
func TestRingSlotOrder(t *testing.T) {
	_, m := mem()
	r := m.AllocRing(4, 4096)
	var got []int
	take := func() { got = append(got, r.Take()) }
	take()
	take()
	take() // 0 1 2
	r.Put(1)
	r.Put(0)
	take()
	take()
	take()
	take() // 0 1 3 -1
	if want := []int{0, 1, 2, 0, 1, 3, -1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("slot order %v, want %v", got, want)
	}
	if r.InUse() != 4 {
		t.Fatalf("InUse = %d, want 4", r.InUse())
	}
	for i := range 4 {
		r.Put(i)
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse after returning every slot = %d", r.InUse())
	}
	if r.Off(3) != 3*4096 {
		t.Fatalf("Off(3) = %d", r.Off(3))
	}
}

func TestRingPutOfUntakenSlotPanics(t *testing.T) {
	_, m := mem()
	r := m.AllocRing(4, 4096)
	r.Take()
	defer func() {
		if recover() == nil {
			t.Fatal("put of a never-taken slot did not panic")
		}
	}()
	r.Put(1)
}

// A ring occupies its whole logical size in the address space and the
// allocation count, exactly like a fully backed buffer, but is backed
// only up to its highest slot ever taken.
func TestRingBackedOnDemand(t *testing.T) {
	_, m := mem()
	r := m.AllocRing(512, 4096)
	after := m.Alloc(1)
	_, m2 := mem()
	full := m2.Alloc(512 * 4096)
	after2 := m2.Alloc(1)
	if r.Buf.Addr != full.Addr || after.Addr != after2.Addr || m.Allocated() != m2.Allocated() {
		t.Fatalf("ring layout differs from a full buffer: addr %#x/%#x next %#x/%#x allocated %d/%d",
			r.Buf.Addr, full.Addr, after.Addr, after2.Addr, m.Allocated(), m2.Allocated())
	}
	if r.Buf.Size() != 512*4096 || r.Buf.Pages() != 512 || len(r.Buf.Data) != 0 {
		t.Fatalf("fresh ring: size %d pages %d backed %d", r.Buf.Size(), r.Buf.Pages(), len(r.Buf.Data))
	}
	r.Take()
	r.Take()
	if len(r.Buf.Data) != 2*4096 {
		t.Fatalf("backed %d bytes after two takes, want %d", len(r.Buf.Data), 2*4096)
	}
	r.Put(1)
	r.Take() // reuses slot 1: no growth
	if len(r.Buf.Data) != 2*4096 {
		t.Fatalf("reusing a freed slot grew the backing to %d", len(r.Buf.Data))
	}
}

// Bytes written into slot 0 survive the reallocation that taking
// later slots forces.
func TestRingGrowthKeepsBytes(t *testing.T) {
	_, m := mem()
	r := m.AllocRing(512, 4096)
	s0 := r.Take()
	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte(i*7 + 3)
	}
	copy(r.Buf.Data[r.Off(s0):], want)
	before := &r.Buf.Data[0]
	for range 64 {
		r.Take()
	}
	if &r.Buf.Data[0] == before {
		t.Fatal("64 more slots never reallocated the backing; the test proves nothing")
	}
	if got := r.Buf.Data[r.Off(s0) : r.Off(s0)+4096]; !reflect.DeepEqual(got, want) {
		t.Fatal("slot 0 bytes lost in growth")
	}
	for _, c := range r.Buf.Data[4096:] {
		if c != 0 {
			t.Fatal("fresh slots not zeroed")
		}
	}
}

// Fill and Equal work over the logical size: an unbacked tail reads
// as zero, and Fill materializes it.
func TestRingFillAndEqual(t *testing.T) {
	_, m := mem()
	r := m.AllocRing(4, 4096)
	r.Take()
	zeroed := m.Alloc(4 * 4096)
	if !Equal(r.Buf, zeroed) || !Equal(zeroed, r.Buf) {
		t.Fatal("partly backed ring unequal to a zeroed buffer of its size")
	}
	if Equal(r.Buf, m.Alloc(4096)) {
		t.Fatal("ring equal to a buffer of its backed size only")
	}
	zeroed.Data[3*4096] = 1
	if Equal(r.Buf, zeroed) {
		t.Fatal("nonzero byte beyond the ring's backing ignored")
	}
	r.Buf.Fill(5)
	zeroed.Fill(5)
	if len(r.Buf.Data) != 4*4096 || !Equal(r.Buf, zeroed) {
		t.Fatal("Fill did not cover the ring's logical size")
	}
}

// One scripted sequence of touches, device DMA and DCA deposits gives
// identical answers on a ring with only k of its slots backed (taking
// more as the script runs) and on a fully backed buffer of the same
// logical size: the model only ever sees the logical size.
func TestRingWarmthMatchesFullBuffer(t *testing.T) {
	const slot = 4096
	for _, tc := range []struct{ slots, k int }{{512, 1}, {512, 3}, {8, 2}} {
		t.Run(fmt.Sprintf("%dslots-%dbacked", tc.slots, tc.k), func(t *testing.T) {
			p := platform.ClovertownDCA()
			mr, mf := New(p), New(p)
			r := mr.AllocRing(tc.slots, slot)
			full := mf.Alloc(tc.slots * slot)
			for range tc.k {
				r.Take()
			}
			size := full.Size()
			// Each memory gets its own traffic buffer so the script
			// advances both clock sets identically.
			tr, tf := mr.Alloc(int(p.L2Size)), mf.Alloc(int(p.L2Size))
			for i, st := range warmthScript(slot, size) {
				st.do(r.Buf, tr)
				st.do(full, tf)
				if i%3 == 2 {
					r.Take() // grow mid-script
				}
				got, want := answers(p, r.Buf), answers(p, full)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("after %q: ring (%d bytes backed) answers\n%v\nfull buffer answers\n%v",
						st.name, len(r.Buf.Data), got, want)
				}
			}
		})
	}
}

// warmthStep is one step of a scripted model sequence, applied to the
// buffer under test b with traffic, a buffer of the same memory, as
// eviction pressure.
type warmthStep struct {
	name string
	do   func(b, traffic *Buffer)
}

// warmthScript is a sequence of touches, device DMA and DCA deposits
// over a buffer of the given logical size that visits every warmth,
// coverage, snoop and DCA state the model distinguishes.
func warmthScript(slot, size int) []warmthStep {
	return []warmthStep{
		{"fresh", func(b, _ *Buffer) {}},
		{"touch one slot", func(b, _ *Buffer) { b.Touch(0, slot) }},
		{"touch again", func(b, _ *Buffer) { b.Touch(0, slot) }},
		{"sibling core", func(b, _ *Buffer) { b.Touch(1, 3*slot) }},
		{"other subchip", func(b, _ *Buffer) { b.Touch(2, 2*slot) }},
		{"DMA deposit", func(b, _ *Buffer) { b.WrittenByDMA() }},
		{"partial snoop", func(b, _ *Buffer) { b.Touch(3, slot) }},
		{"whole snoop", func(b, _ *Buffer) { b.Touch(3, size) }},
		{"DCA one slot", func(b, _ *Buffer) { b.WrittenByDCA(0, slot) }},
		{"DCA whole", func(b, _ *Buffer) { b.WrittenByDCA(5, size) }},
		{"evict", func(_, traffic *Buffer) { traffic.Touch(4, traffic.Size()) }},
		{"remote touch", func(b, _ *Buffer) { b.Touch(6, size) }},
		{"DCA after remote", func(b, _ *Buffer) { b.WrittenByDCA(1, 2*slot) }},
		{"consume", func(b, _ *Buffer) { b.Touch(1, slot) }},
	}
}

// answers collects every model query a copy-rate or DCA decision can
// make of b.
func answers(p *platform.Platform, b *Buffer) []string {
	out := []string{fmt.Sprintf("size=%d pages=%d warmlen=%d dmacold=%v lastcore=%d dcalen=%d",
		b.Size(), b.Pages(), b.WarmLen(), b.DMACold(), b.LastCore(), b.DCALen())}
	spans := []int{1, 4096, 3 * 4096, b.Size() / 2, b.Size()}
	for c := range p.NumCores() {
		s := fmt.Sprintf("core%d l1=%v l2=%v dcares=%v dcawrong=%v remote=%v",
			c, b.WarmL1(c), b.WarmL2(c), b.DCAResident(c), b.DCAWrongSocket(c), b.RemoteSocket(c))
		for _, n := range spans {
			s += fmt.Sprintf(" [%d:%v%v%v]", n, b.WarmSpanL1(c, n), b.WarmSpanL2(c, n), b.DMAColdFor(n))
		}
		out = append(out, s)
	}
	return out
}
