package hostmem

import (
	"fmt"
	"reflect"
	"testing"

	"omxsim/platform"
)

// A released buffer's bytes are gone: Data is nil, so any later read
// or write through it panics.
func TestReleaseNilsData(t *testing.T) {
	_, m := mem()
	b := m.Alloc(8192)
	b.Fill(3)
	m.Release(b)
	if b.Data != nil {
		t.Fatalf("released buffer still holds %d bytes", len(b.Data))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a released buffer did not panic")
		}
	}()
	_ = b.Data[0]
}

// Release refuses anything but the one release of a fully backed
// buffer: a second release would hand one backing to two buffers, and
// a ring's partial backing is shorter than its size.
func TestReleaseMisusePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		do   func(m *Memory)
	}{
		{"twice", func(m *Memory) {
			b := m.Alloc(64)
			m.Release(b)
			m.Release(b)
		}},
		{"partially backed ring", func(m *Memory) { m.Release(m.AllocRing(4, 4096).Buf) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, m := mem()
			defer func() {
				if recover() == nil {
					t.Fatal("did not panic")
				}
			}()
			tc.do(m)
		})
	}
}

// The next allocation of a released buffer's size reuses its backing,
// zeroed; other sizes do not. Addresses and the allocation count
// advance exactly as without the release.
func TestReallocReusesZeroedBacking(t *testing.T) {
	_, m := mem()
	_, ref := mem()
	b := m.Alloc(8192)
	ref.Alloc(8192)
	b.Fill(0x5A)
	back := &b.Data[0]
	m.Release(b)
	other := m.Alloc(4096)
	ref.Alloc(4096)
	if &other.Data[0] == back {
		t.Fatal("a 4096-byte allocation reused an 8192-byte backing")
	}
	again := m.Alloc(8192)
	fresh := ref.Alloc(8192)
	if &again.Data[0] != back {
		t.Fatal("released backing was not reused by an allocation of its size")
	}
	if !zero(again.Data) || len(again.Data) != 8192 {
		t.Fatalf("reused backing: %d bytes, zeroed %v", len(again.Data), zero(again.Data))
	}
	if again.Addr != fresh.Addr || m.Allocated() != ref.Allocated() {
		t.Fatalf("reuse moved the layout: addr %#x vs %#x, allocated %d vs %d",
			again.Addr, fresh.Addr, m.Allocated(), ref.Allocated())
	}
	if &m.Alloc(8192).Data[0] == back {
		t.Fatal("one released backing was handed out twice")
	}
}

// A buffer built over a recycled backing inherits nothing from the
// buffer that released it: after a previous occupant went through DMA,
// DCA, pinning and remote touches, the scripted model sequence gives
// the same answers on the reused buffer as on a fresh allocation in an
// identical memory that never released anything.
func TestReusedBufferAnswersLikeFresh(t *testing.T) {
	const slot = 4096
	for _, size := range []int{slot, 8 * slot} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			p := platform.ClovertownDCA()
			mr, mf := New(p), New(p)
			tr, tf := mr.Alloc(int(p.L2Size)), mf.Alloc(int(p.L2Size))
			old, oldRef := mr.Alloc(size), mf.Alloc(size)
			for _, st := range warmthScript(slot, size) {
				st.do(old, tr)
				st.do(oldRef, tf)
			}
			old.Pin()
			old.Unpin()
			back := &old.Data[0]
			mr.Release(old)
			b, fresh := mr.Alloc(size), mf.Alloc(size)
			if &b.Data[0] != back {
				t.Fatal("allocation did not reuse the released backing")
			}
			layout := func(m *Memory, b *Buffer) string {
				return fmt.Sprintf("addr=%#x size=%d pages=%d allocated=%d pinned=%v home=%d",
					b.Addr, b.Size(), b.Pages(), m.Allocated(), b.Pinned(), b.HomeSocket())
			}
			if got, want := layout(mr, b), layout(mf, fresh); got != want {
				t.Fatalf("reused buffer %s, fresh %s", got, want)
			}
			for _, st := range warmthScript(slot, size) {
				st.do(b, tr)
				st.do(fresh, tf)
				if got, want := answers(p, b), answers(p, fresh); !reflect.DeepEqual(got, want) {
					t.Fatalf("after %q: reused buffer answers\n%v\nfresh buffer answers\n%v", st.name, got, want)
				}
			}
		})
	}
}
