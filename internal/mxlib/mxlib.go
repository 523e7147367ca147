// Package mxlib is the MX user library both stacks share: the API
// semantics an application sees through an endpoint, whether Open-MX
// (internal/core) or native MXoE (internal/mxoe) runs underneath.
// Keeping them in one place is what lets the mpi and imb layers run
// unchanged over either stack.
//
// The library owns masked 64-bit matching, with each arriving message
// tried against the posted receives in post order and each new receive
// tried against the unexpected messages in arrival order; eager
// reassembly into the matched receive or into temporary storage; and
// the Wait/Test/Progress engine that drains the driver's or firmware's
// event queue on the endpoint's core. Everything below the event
// queue — what the wire carries, how a fragment reached the receive
// ring, what a matched rendezvous does — belongs to the stack.
package mxlib

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/sim"
)

// Request is an in-flight send, receive or collective.
type Request struct {
	// Buf[Off:Off+N] is the user buffer the operation sends from or
	// receives into (nil for a barrier).
	Buf    *hostmem.Buffer
	Off, N int

	done bool

	// Completion information: what a receive matched (valid once
	// done); a send carries its own match value.
	length int
	sender proto.Addr
	match  uint64

	// want under mask selects the messages a posted receive matches.
	want, mask uint64
}

// NewRequest starts a send with the given match value (or, with match
// 0, a collective) over buf[off:off+n].
func NewRequest(match uint64, buf *hostmem.Buffer, off, n int) *Request {
	return &Request{Buf: buf, Off: off, N: n, match: match}
}

// Done reports whether the operation has completed. Completion is
// observed by the progress engine (Wait, Test, Progress).
func (r *Request) Done() bool { return r.done }

// Len reports the bytes a completed receive delivered.
func (r *Request) Len() int { return r.length }

// Sender reports the source of the message a receive matched.
func (r *Request) Sender() proto.Addr { return r.sender }

// Match reports the match value of the matched message (of a send:
// its own).
func (r *Request) Match() uint64 { return r.match }

// Finish marks the operation complete.
func (r *Request) Finish() { r.done = true }

// SetLen records the bytes a collective delivered.
func (r *Request) SetLen(n int) { r.length = n }

// matched records the message a receive matched; the receive takes
// at most its own capacity of it.
func (r *Request) matched(src proto.Addr, match uint64, msgLen int) {
	r.sender, r.match, r.length = src, match, min(msgLen, r.N)
}

// Frag is one eager fragment the driver or firmware queued for the
// library. Rendezvous events reuse its message header.
type Frag struct {
	Src    proto.Addr
	Match  uint64
	Seq    uint32 // the message's sequence on its channel
	MsgLen int
	ID     int // fragment index within the message
	Count  int // fragments in the message
	Offset int // payload offset of this fragment in the message
	Len    int // payload bytes
	Slot   int // receive-ring slot holding the payload; -1 if none
	// Inline is a tiny payload carried in the event itself (Open-MX).
	Inline []byte
}

// Message is a whole message waiting for, or handed to, a matching
// receive. Its data is either an assembled eager payload in Tmp,
// which the library copies out, or a deferred transfer that moves only
// once a receive matched it: Start hands it that receive (a
// rendezvous pull, an Open-MX local copy), already recording the
// message's source, match value and length.
type Message struct {
	Src   proto.Addr
	Match uint64
	Len   int
	Tmp   *hostmem.Buffer
	Start func(p *sim.Proc, r *Request)
}

// asmKey names one eager message: source endpoint plus its sequence.
type asmKey struct {
	src proto.Addr
	seq uint32
}

// assembly is one eager message still arriving: matched to dst at
// first sight, or stored in tmp until a receive claims it.
type assembly struct {
	proto.Reassembly
	match  uint64
	msgLen int
	dst    *Request
	tmp    *hostmem.Buffer
}

// Lib is one endpoint's library state: the driver- or
// firmware-to-library event queue, the posted and unexpected lists and
// the eager messages still arriving. E is the stack's event type; the
// stack handles every event it queued.
type Lib[E any] struct {
	h      *host.Host
	coreID int
	core   *cpu.Core
	// mergePrefix selects the claim copy (proto.CopyPlan): Open-MX
	// moves a hole-free prefix in one memcpy, MX copies per fragment.
	mergePrefix bool
	// copyFrag copies n payload bytes of an eager fragment to dst at
	// off and returns the CPU time the copy takes.
	copyFrag func(f *Frag, dst *hostmem.Buffer, off, n int) sim.Duration
	handle   func(p *sim.Proc, ev E)

	evq []E
	sig *sim.Signal

	posted []*Request
	ux     []*Message
	asm    map[asmKey]*assembly
}

// New builds the library of an endpoint whose process runs on core
// coreID of h. copyFrag moves an eager fragment's payload out of
// wherever the stack deposited it; handle processes one queued event.
func New[E any](h *host.Host, coreID int, mergePrefix bool,
	copyFrag func(f *Frag, dst *hostmem.Buffer, off, n int) sim.Duration,
	handle func(p *sim.Proc, ev E)) *Lib[E] {
	return &Lib[E]{
		h: h, coreID: coreID, core: h.Sys.Core(coreID),
		mergePrefix: mergePrefix, copyFrag: copyFrag, handle: handle,
		sig: sim.NewSignal(),
		asm: make(map[asmKey]*assembly),
	}
}

// Push queues a driver or firmware event for the library and wakes
// waiters. Callers charge the event-write cost themselves.
func (l *Lib[E]) Push(ev E) {
	l.evq = append(l.evq, ev)
	l.sig.Broadcast()
}

// String summarizes the backlog for diagnostics.
func (l *Lib[E]) String() string {
	return fmt.Sprintf("evq=%d ux=%d asm=%d posted=%d", len(l.evq), len(l.ux), len(l.asm), len(l.posted))
}

// IRecv posts a receive of up to n bytes into buf[off:] for messages
// whose match value equals match under mask. Unexpected messages that
// already arrived are matched (and consumed) first, in arrival order;
// then the lowest (source, sequence) eager message still arriving
// that nobody claimed; only then is the receive queued.
func (l *Lib[E]) IRecv(p *sim.Proc, match, mask uint64, buf *hostmem.Buffer, off, n int) *Request {
	l.core.RunOn(p, cpu.UserLib, sim.Duration(l.h.P.OMXLibPickupCost))
	r := &Request{Buf: buf, Off: off, N: n, want: match, mask: mask}
	for i, m := range l.ux {
		if proto.Matches(match, mask, m.Match) {
			l.ux = append(l.ux[:i], l.ux[i+1:]...)
			l.deliver(p, r, m)
			return r
		}
	}
	// Claiming a partial message keeps one whose first fragment beat
	// the post (retransmission, cross-NIC skew) from completing into
	// the unexpected queue unmatched. Selection is by lowest (source,
	// sequence), never by map order, so runs stay bit-reproducible.
	var claim *assembly
	var claimKey asmKey
	for k, a := range l.asm {
		if a.dst == nil && proto.Matches(match, mask, a.match) &&
			(claim == nil || proto.ClaimBefore(k.src, k.seq, claimKey.src, claimKey.seq)) {
			claim, claimKey = a, k
		}
	}
	if claim != nil {
		claim.dst = r
		if claim.Arrived > 0 && claim.tmp != nil {
			l.claimArrived(p, r, claim)
		}
		claim.tmp = nil
		return r
	}
	l.posted = append(l.posted, r)
	return r
}

// claimArrived copies the fragments of a claimed assembly that already
// arrived from its temporary storage into the receive, following
// proto.CopyPlan. Beyond a hole each arrived fragment is copied at its
// own offset: a prefix copy would drop data that arrived past the hole
// and will never be retransmitted.
func (l *Lib[E]) claimArrived(p *sim.Proc, r *Request, a *assembly) {
	for _, run := range proto.CopyPlan(a.Got, a.Arrived, proto.MediumFragSize, min(a.msgLen, r.N), l.mergePrefix) {
		d := l.h.Copy.Memcpy(r.Buf, r.Off+run.Off, a.tmp, run.Off, run.N, l.coreID)
		l.core.RunOn(p, cpu.UserLib, d)
	}
}

// matchPosted removes and returns the first posted receive, in post
// order, that matches a message's match value; nil if none does.
func (l *Lib[E]) matchPosted(match uint64) *Request {
	for i, r := range l.posted {
		if proto.Matches(r.want, r.mask, match) {
			l.posted = append(l.posted[:i], l.posted[i+1:]...)
			return r
		}
	}
	return nil
}

// deliver hands message m to the receive r that matched it: a
// deferred transfer starts, an eager payload is copied out and the
// receive completes. The payload's temporary storage (an unexpected
// eager assembly buffer or an MX shared-memory segment) is released
// once copied out, so the next message of its size reuses the backing.
func (l *Lib[E]) deliver(p *sim.Proc, r *Request, m *Message) {
	r.matched(m.Src, m.Match, m.Len)
	if m.Start != nil {
		m.Start(p, r)
		return
	}
	if r.length > 0 {
		d := l.h.Copy.Memcpy(r.Buf, r.Off, m.Tmp, 0, r.length, l.coreID)
		l.core.RunOn(p, cpu.UserLib, d)
	}
	if m.Tmp != nil {
		l.h.Mem.Release(m.Tmp)
	}
	r.done = true
}

// Arrive matches a whole message against the posted receives and
// delivers it, or queues it as unexpected.
func (l *Lib[E]) Arrive(p *sim.Proc, m *Message) {
	if r := l.matchPosted(m.Match); r != nil {
		l.deliver(p, r, m)
		return
	}
	l.ux = append(l.ux, m)
}

// EagerFrag is the library half of eager reception. The first
// fragment of a message matches it against the posted receives, or
// allocates temporary storage for it; each fresh fragment is copied to
// its destination, truncated to a short receive's capacity; the last
// one completes the receive or queues the message as unexpected. It
// reports whether f was fresh (a duplicate copies nothing) and whether
// it completed its message.
func (l *Lib[E]) EagerFrag(p *sim.Proc, f *Frag) (fresh, complete bool) {
	key := asmKey{src: f.Src, seq: f.Seq}
	a := l.asm[key]
	if a == nil {
		a = &assembly{Reassembly: proto.NewReassembly(f.Count), match: f.Match, msgLen: f.MsgLen}
		a.dst = l.matchPosted(f.Match)
		if a.dst == nil && f.MsgLen > 0 {
			a.tmp = l.h.Alloc(f.MsgLen)
		}
		l.asm[key] = a
	}
	if !a.Mark(f.ID) {
		return false, false
	}
	dst, off, limit := a.tmp, f.Offset, f.MsgLen
	if a.dst != nil {
		dst, off = a.dst.Buf, a.dst.Off+f.Offset
		limit = min(f.MsgLen, a.dst.N)
	}
	n := f.Len
	if f.Offset+n > limit {
		n = limit - f.Offset // truncated receive
	}
	if n > 0 && dst != nil {
		l.core.RunOn(p, cpu.UserLib, l.copyFrag(f, dst, off, n))
	}
	if !a.Done() {
		return true, false
	}
	delete(l.asm, key)
	if a.dst != nil {
		a.dst.matched(f.Src, a.match, a.msgLen)
		a.dst.done = true
	} else {
		l.ux = append(l.ux, &Message{Src: f.Src, Match: a.match, Len: a.msgLen, Tmp: a.tmp})
	}
	return true, true
}

// Wait blocks p until r completes, running the progress engine on the
// endpoint's core.
func (l *Lib[E]) Wait(p *sim.Proc, r *Request) {
	for !r.done {
		if !l.Progress(p) {
			p.WaitFor(l.sig, func() bool { return len(l.evq) > 0 })
		}
	}
}

// Test reports whether r completed, after a progress pass over the
// events already queued.
func (l *Lib[E]) Test(p *sim.Proc, r *Request) bool {
	l.Progress(p)
	return r.done
}

// Progress drains the event queue, charging the library's pickup cost
// per event. It reports whether any event was processed.
func (l *Lib[E]) Progress(p *sim.Proc) bool {
	if len(l.evq) == 0 {
		return false
	}
	for len(l.evq) > 0 {
		ev := l.evq[0]
		l.evq = l.evq[1:]
		l.core.RunOn(p, cpu.UserLib, sim.Duration(l.h.P.OMXLibPickupCost))
		l.handle(p, ev)
	}
	return true
}
