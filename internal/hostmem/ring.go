package hostmem

import "fmt"

// Ring is an endpoint receive ring: a fixed number of equal slots over
// one Buffer whose logical size is slots × slotSize. Its address
// range, page count and cache footprint are the whole ring from the
// start, but its bytes are materialized only as far as the highest
// slot ever handed out — real NICs post descriptors over a region
// they fill on demand, and a ring rarely has more than a few slots in
// flight.
//
// Slots are handed out freed-first, last in first out, then fresh in
// ascending order. The slots ever used are therefore always
// 0..peak-1, which keeps the backing a prefix of the buffer.
type Ring struct {
	Buf *Buffer

	slotSize int
	slots    int
	free     []int // released slots, reused last in first out
	fresh    int   // lowest never-used slot
}

// AllocRing returns a ring of slots slotSize-byte slots, homed on the
// chipset's local socket. The logical size counts toward Allocated and
// the address stride in full; no slot is backed yet.
func (m *Memory) AllocRing(slots, slotSize int) *Ring {
	return &Ring{
		Buf:      m.alloc(slots*slotSize, m.P.DMAHomeSocket, 0),
		slotSize: slotSize,
		slots:    slots,
	}
}

// Take hands out a slot, or -1 when every slot is in use. A slot
// handed out for the first time is materialized (zeroed).
func (r *Ring) Take() int {
	if n := len(r.free); n > 0 {
		i := r.free[n-1]
		r.free = r.free[:n-1]
		return i
	}
	if r.fresh == r.slots {
		return -1
	}
	i := r.fresh
	r.fresh++
	r.Buf.materialize(r.fresh * r.slotSize)
	return i
}

// Put returns slot i to the ring.
func (r *Ring) Put(i int) {
	if i < 0 || i >= r.fresh {
		panic(fmt.Sprintf("hostmem: put of slot %d never taken (%d used)", i, r.fresh))
	}
	r.free = append(r.free, i)
}

// Off reports the byte offset of slot i in Buf.
func (r *Ring) Off(i int) int { return i * r.slotSize }

// InUse reports how many slots are currently handed out.
func (r *Ring) InUse() int { return r.fresh - len(r.free) }
