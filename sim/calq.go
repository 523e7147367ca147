package sim

// The calendar event queue: a timing wheel over the near future plus a
// small binary heap for far-out timers, replacing the single
// container/heap of the original engine. The motivation is the
// 64-512-rank fat-tree worlds: at that scale the simulator spends most
// of its wall time inside the event queue, and a binary heap pays
// O(log n) pointer-chasing compares per operation where the wheel pays
// O(1) appends and pops.
//
//   - Events due within wheelHorizon of the wheel base land in one of
//     wheelBuckets fixed-width buckets. A bucket is a singly linked
//     list of events, threaded through the pooled events' own next
//     link. Every pop unlinks the head of the base bucket, which is
//     kept sorted by (at, seq). A bucket further ahead is only ever
//     appended to; if an append arrives out of order the bucket is
//     flagged, and sorted in one pass (a stable split by nanosecond)
//     when the base reaches it. The steady state touches no allocator
//     at all, and a fresh engine allocates no per-bucket storage: its
//     whole wheel is one 64 KiB array of head/tail pairs.
//   - Events beyond the horizon (retransmit timers, experiment
//     deadlines) go to a local min-heap ordered by the same (at, seq)
//     key. As the wheel base advances, newly covered far events
//     migrate into the freshly vacated buckets, preserving the
//     invariant that every event in the far heap is at least one full
//     horizon away.
//   - Event structs are pooled: a freelist over chunk-allocated slabs,
//     with a generation counter so a Timer held across the event's
//     recycling can never cancel an unrelated reuse.
//
// Ordering is the same total order as the original heap — (at, seq),
// seq strictly increasing per engine — so every simulation trajectory,
// and therefore every committed golden figure, is bit-identical.

import "math/bits"

const (
	wheelShift   = 6    // log2 bucket width: 64 ns per bucket
	wheelBuckets = 4096 // must be a power of two
	wheelMask    = wheelBuckets - 1
	bucketWidth  = Time(1) << wheelShift
	wheelHorizon = Time(wheelBuckets) << wheelShift // ≈262 µs of coverage
	eventChunk   = 256                              // events allocated per slab
)

// event is a scheduled callback or process step. fn and proc are
// mutually exclusive: proc events step the process directly, so the
// proc hot path (Sleep/Yield/wake) schedules without building a
// closure.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
	// wakeup distinguishes the two closure-free proc event kinds: a
	// wake event runs proc.wake (the timer half of Sleep/Yield, which
	// itself files a step event), a step event resumes the goroutine.
	// Keeping both hops preserves the exact event interleaving of the
	// original closure-based engine, so trajectories are bit-identical.
	wakeup    bool
	gen       uint32 // bumped on recycle; Timers holding an older gen are stale
	cancelled bool
	// next links the event into whichever list holds it: its wheel
	// bucket while scheduled, the freelist once recycled. Far-heap
	// events are held by the heap slice and leave it nil.
	next *event
}

// before reports whether e fires before o in the engine's total order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// bucket is one wheel slot: a list of events from head to tail, linked
// through event.next and sorted by (at, seq) unless calq.unsorted flags
// it. Both are nil when the bucket is empty.
type bucket struct {
	head, tail *event
}

// calq is the calendar queue. The zero value is ready to use (base 0).
type calq struct {
	buckets [wheelBuckets]bucket
	occ     [wheelBuckets / 64]uint64 // per-bucket non-empty bitmap
	base    Time                      // start of buckets[baseIdx]'s window (multiple of bucketWidth)
	baseIdx int
	wheelN  int      // events currently in the wheel (cancelled included)
	far     []*event // min-heap by (at, seq): everything ≥ base+wheelHorizon
	free    *event   // recycled-event freelist

	// unsorted marks buckets ahead of the base that took an event out
	// of order; peek sorts such a bucket once, when the base reaches it.
	unsorted [wheelBuckets / 64]uint64
	byNs     [bucketWidth]bucket // sortBucket's per-nanosecond lists
}

// alloc hands out a pooled event, growing the slab only when the
// freelist is empty (steady-state schedules never reach the allocator).
func (q *calq) alloc() *event {
	if q.free == nil {
		chunk := make([]event, eventChunk)
		for i := range chunk {
			chunk[i].next = q.free
			q.free = &chunk[i]
		}
	}
	ev := q.free
	q.free = ev.next
	ev.next = nil
	return ev
}

// recycle returns a popped event to the pool. The generation bump
// invalidates every Timer that still points here.
func (q *calq) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.proc = nil
	ev.wakeup = false
	ev.cancelled = false
	ev.next = q.free
	q.free = ev
}

// push files an event. The caller guarantees ev.at ≥ the engine clock,
// which in turn is ≥ q.base.
func (q *calq) push(ev *event) {
	if ev.at < q.base+wheelHorizon {
		q.pushWheel(ev)
		return
	}
	q.far = append(q.far, ev)
	q.siftUp(len(q.far) - 1)
}

// pushWheel slots an event into its bucket. seq grows monotonically,
// so an event whose time is not earlier than the bucket's tail simply
// appends — the common case. An earlier one is appended too, and the
// bucket flagged for one sort when the base reaches it, unless it is
// the base bucket itself: that one stays sorted, and the event walks
// from the head to its place (events due at the current instant, the
// usual case there, sit near the head).
func (q *calq) pushWheel(ev *event) {
	idx := int(ev.at>>wheelShift) & wheelMask
	b := &q.buckets[idx]
	q.wheelN++
	if b.tail == nil {
		ev.next = nil
		b.head, b.tail = ev, ev
		q.occ[idx>>6] |= 1 << (idx & 63)
		return
	}
	if ev.before(b.tail) {
		if idx == q.baseIdx {
			link := &b.head
			for !ev.before(*link) {
				link = &(*link).next
			}
			ev.next = *link
			*link = ev
			return
		}
		q.unsorted[idx>>6] |= 1 << (idx & 63)
	}
	ev.next = nil
	b.tail.next = ev
	b.tail = ev
}

// pop removes and returns the earliest live event, or nil when the
// queue is empty. Cancelled events are recycled on the way.
func (q *calq) pop() *event {
	for {
		ev := q.peek()
		if ev == nil {
			return nil
		}
		q.remove()
		if ev.cancelled {
			q.recycle(ev)
			continue
		}
		return ev
	}
}

// peek positions the wheel on the earliest event and returns it
// without removing it (nil when empty). Advancing the base and
// migrating far events are side effects that never change firing
// order, so peek is safe to call at any point.
func (q *calq) peek() *event {
	if q.wheelN == 0 {
		if len(q.far) == 0 {
			return nil
		}
		// Wheel drained: jump the base straight to the earliest far
		// event and pull everything newly covered into the wheel.
		q.base = q.far[0].at &^ (bucketWidth - 1)
		q.baseIdx = int(q.base>>wheelShift) & wheelMask
		q.migrate()
	}
	// Find the next occupied bucket at or after baseIdx. All wheel
	// events live within one horizon of base, so the first occupied
	// bucket in cyclic order holds the minimum.
	idx := q.nextOccupied(q.baseIdx)
	if steps := (idx - q.baseIdx + wheelBuckets) & wheelMask; steps > 0 {
		// The skipped buckets are empty; advancing the base over them
		// extends the horizon, so far events may now be due.
		q.base += Time(steps) << wheelShift
		q.baseIdx = idx
		q.migrate()
	}
	if q.unsorted[idx>>6]&(1<<(idx&63)) != 0 {
		q.sortBucket(idx)
	}
	return q.buckets[idx].head
}

// sortBucket puts bucket idx's list into (at, seq) order. A bucket
// ahead of the base only ever appends: first the far events migrated
// into it, in (at, seq) order, then newly scheduled ones, each with a
// larger seq than all before it. Events with the same at are thus
// already in seq order, and a stable split by the nanosecond within
// the bucket's window (bucketWidth ≤ 64, one bit of used each) sorts
// it in one pass.
func (q *calq) sortBucket(idx int) {
	b := &q.buckets[idx]
	var used uint64
	for ev := b.head; ev != nil; {
		next := ev.next
		ev.next = nil
		ns := ev.at & (bucketWidth - 1)
		l := &q.byNs[ns]
		if used&(1<<ns) == 0 {
			used |= 1 << ns
			l.head = ev
		} else {
			if ev.seq < l.tail.seq {
				panic("sim: events of one instant appended out of seq order")
			}
			l.tail.next = ev
		}
		l.tail = ev
		ev = next
	}
	b.head, b.tail = nil, nil
	for ; used != 0; used &= used - 1 {
		l := &q.byNs[bits.TrailingZeros64(used)]
		if b.tail == nil {
			b.head = l.head
		} else {
			b.tail.next = l.head
		}
		b.tail = l.tail
	}
	q.unsorted[idx>>6] &^= 1 << (idx & 63)
}

// remove discards the event peek returned (the head of the base
// bucket).
func (q *calq) remove() {
	b := &q.buckets[q.baseIdx]
	b.head = b.head.next
	if b.head == nil {
		b.tail = nil
		q.occ[q.baseIdx>>6] &^= 1 << (q.baseIdx & 63)
	}
	q.wheelN--
}

// nextOccupied scans the occupancy bitmap cyclically from idx for the
// first non-empty bucket. The caller guarantees the wheel is non-empty.
func (q *calq) nextOccupied(idx int) int {
	// First word: mask off bits below idx.
	w := idx >> 6
	if b := q.occ[w] >> (idx & 63); b != 0 {
		return idx + bits.TrailingZeros64(b)
	}
	for i := 1; i <= len(q.occ); i++ {
		w2 := (w + i) & (len(q.occ) - 1)
		if b := q.occ[w2]; b != 0 {
			return w2<<6 + bits.TrailingZeros64(b)
		}
	}
	panic("sim: nextOccupied on an empty wheel")
}

// migrate moves far events that the advancing base now covers into the
// wheel. They always land in the freshly vacated buckets behind the
// base, which the jump proved empty.
func (q *calq) migrate() {
	for len(q.far) > 0 && q.far[0].at < q.base+wheelHorizon {
		q.pushWheel(q.popFar())
	}
}

// popFar removes the far heap's minimum.
func (q *calq) popFar() *event {
	ev := q.far[0]
	n := len(q.far) - 1
	q.far[0] = q.far[n]
	q.far[n] = nil
	q.far = q.far[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return ev
}

func (q *calq) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.far[i].before(q.far[parent]) {
			return
		}
		q.far[i], q.far[parent] = q.far[parent], q.far[i]
		i = parent
	}
}

func (q *calq) siftDown(i int) {
	n := len(q.far)
	for {
		least := i
		if l := 2*i + 1; l < n && q.far[l].before(q.far[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q.far[r].before(q.far[least]) {
			least = r
		}
		if least == i {
			return
		}
		q.far[i], q.far[least] = q.far[least], q.far[i]
		i = least
	}
}
