package core

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/sim"
)

// Endpoint is one Open-MX communication endpoint: the user-library
// state (matching lists, eager reassembly, registration cache) plus
// the driver-shared event ring. An endpoint is used by a single
// simulated process, bound to one core.
type Endpoint struct {
	S    *Stack
	ID   int
	Core int // the core the owning process runs on

	// Receive ring: statically pinned kernel pages the bottom half
	// copies eager payloads into, one 4 kiB slot per fragment.
	ring *hostmem.Ring

	// Event queue from driver to library.
	evq   []*event
	evSig *sim.Signal

	// Library matching state.
	posted []*Request
	ux     []*uxMsg

	// Per-peer channels.
	txChans map[proto.Addr]*txChan
	rxChans map[proto.Addr]*rxChan
}

// Request is an in-flight send or receive operation.
type Request struct {
	ep     *Endpoint
	isRecv bool
	done   bool

	// Completion information (valid once Done).
	Len        int        // bytes delivered (receives)
	SenderAddr proto.Addr // source of the matched message (receives)
	MatchInfo  uint64     // match value of the message

	// Receive posting.
	match, mask uint64
	buf         *hostmem.Buffer
	off, n      int

	// Send bookkeeping.
	dst proto.Addr
	seq uint32
}

// Done reports whether the operation has completed. Completion is
// driven by the library progress engine (Wait or Progress).
func (r *Request) Done() bool { return r.done }

type evKind int

const (
	evEagerFrag evKind = iota
	evRndv
	evLargeDone
	evSendDone
	evEagerAcked
	evLocalMsg
	evLocalDone
)

type event struct {
	kind    evKind
	src     proto.Addr
	match   uint64
	seq     uint32
	msgLen  int
	fragID  int
	fragCnt int
	offset  int
	slot    int // ring slot holding payload; -1 if none
	dataLen int
	inline  []byte // tiny payload carried in the event itself
	handle  int    // rendezvous sender handle
	req     *Request
	reqs    []*Request // eager sends completed by an ack
	lm      *localMsg
}

type uxKind int

const (
	uxEager uxKind = iota
	uxRndv
	uxLocal
)

type uxMsg struct {
	kind   uxKind
	src    proto.Addr
	match  uint64
	seq    uint32
	msgLen int
	tmp    *hostmem.Buffer // assembled eager payload
	handle int             // rendezvous sender handle
	lm     *localMsg
}

// txChan is the reliability state towards one remote endpoint: unacked
// eager sends, the retransmission timer and its backoff attempt count.
type txChan struct {
	dst         proto.Addr
	nextSeq     uint32
	ackedSeq    uint32
	unacked     []*eagerSend
	rtx         sim.Timer
	rtxAttempts int
}

type eagerSend struct {
	seq    uint32
	req    *Request
	match  uint64
	buf    *hostmem.Buffer
	off, n int
	// sentAt is the first transmission time (the send -> cumulative-ack
	// round trip is an RTT sample); rtxed marks a retransmitted send,
	// never sampled (Karn's rule).
	sentAt sim.Time
	rtxed  bool
}

// rxChan is the receive-side state from one remote endpoint:
// reassembly, cumulative-ack tracking and the deferred-ack timer.
type rxChan struct {
	src proto.Addr
	// win is the shared cumulative completion window (the wire
	// semantics both stacks must agree on live in internal/proto).
	win proto.Window
	asm map[uint32]*assembly
	// fragSeen is the driver-side per-message fragment bitmap:
	// retransmitted duplicates of individual fragments are dropped in
	// the bottom half, before they can consume a ring slot or queue
	// an event the library might never process (entries retire when
	// the message completes and isDup takes over).
	fragSeen    map[uint32]uint64
	lastAckSent uint32
	ackTimer    sim.Timer
}

type assembly struct {
	src     proto.Addr
	seq     uint32
	match   uint64
	msgLen  int
	fragCnt int
	got     uint64
	arrived int
	dst     *Request        // matched posted receive, nil if unexpected
	tmp     *hostmem.Buffer // unexpected storage
}

// OpenEndpoint creates endpoint id bound to the given core. Endpoint
// ids are per host; opening a duplicate id panics.
func (s *Stack) OpenEndpoint(id, coreID int) *Endpoint {
	if _, dup := s.endpoints[id]; dup {
		panic(fmt.Sprintf("openmx: endpoint %d already open on %s", id, s.H.Name))
	}
	ep := &Endpoint{
		S:       s,
		ID:      id,
		Core:    coreID,
		ring:    s.H.Mem.AllocRing(s.Cfg.RingSlots, proto.MediumFragSize),
		evSig:   sim.NewSignal(),
		txChans: make(map[proto.Addr]*txChan),
		rxChans: make(map[proto.Addr]*rxChan),
	}
	s.endpoints[id] = ep
	return ep
}

// Addr returns this endpoint's network address.
func (ep *Endpoint) Addr() proto.Addr { return ep.S.addr(ep.ID) }

func (ep *Endpoint) core() *cpu.Core { return ep.S.H.Sys.Core(ep.Core) }

func (ep *Endpoint) txChan(dst proto.Addr) *txChan {
	c := ep.txChans[dst]
	if c == nil {
		c = &txChan{dst: dst}
		ep.txChans[dst] = c
	}
	return c
}

func (ep *Endpoint) rxChan(src proto.Addr) *rxChan {
	c := ep.rxChans[src]
	if c == nil {
		c = &rxChan{
			src:      src,
			win:      proto.NewWindow(),
			asm:      make(map[uint32]*assembly),
			fragSeen: make(map[uint32]uint64),
		}
		ep.rxChans[src] = c
	}
	return c
}

// pushEvent appends a driver→library event and wakes waiters. Callers
// charge the event-write cost themselves.
func (ep *Endpoint) pushEvent(ev *event) {
	ep.evq = append(ep.evq, ev)
	ep.evSig.Broadcast()
}

// pagesSpanned is the page count of an n-byte region (what the
// driver actually pins — not the whole buffer).
func pagesSpanned(n, pageSize int) int64 {
	if n <= 0 {
		return 1
	}
	return int64((n + pageSize - 1) / pageSize)
}

// pinCost returns the driver time to pin the n-byte region of buf,
// honouring the stack's registration cache, and takes the pin
// reference. A cache hit costs nothing; a miss pays PinPerPage over
// the region, plus UnpinPerPage over any region the cache's LRU bound
// forced out to make room.
func (ep *Endpoint) pinCost(buf *hostmem.Buffer, n int) sim.Duration {
	p := ep.S.H.P
	if ep.S.reg != nil {
		pinned, evicted := ep.S.reg.Acquire(buf, n)
		return sim.Duration(pinned*p.PinPerPage + evicted*p.UnpinPerPage)
	}
	buf.Pin()
	return sim.Duration(pagesSpanned(n, p.PageSize) * p.PinPerPage)
}

// unpinCost returns the driver time to release the region after a
// transfer (zero with the registration cache, which defers
// deregistration).
func (ep *Endpoint) unpinCost(buf *hostmem.Buffer, n int) sim.Duration {
	if ep.S.Cfg.RegCache {
		return 0
	}
	buf.Unpin()
	return sim.Duration(pagesSpanned(n, ep.S.H.P.PageSize) * ep.S.H.P.UnpinPerPage)
}

// takeAck returns the piggyback cumulative ack for outgoing traffic to
// dst and disarms any pending explicit-ack timer.
func (ep *Endpoint) takeAck(dst proto.Addr) uint32 {
	c := ep.rxChans[dst]
	if c == nil {
		return 0
	}
	c.ackTimer.Stop()
	c.ackTimer = sim.Timer{}
	c.lastAckSent = c.win.Edge()
	return c.win.Edge()
}

// matches implements MX matching: the receive's masked match value
// must equal the message's masked match value.
func matches(recvMatch, recvMask, msgMatch uint64) bool {
	return recvMatch&recvMask == msgMatch&recvMask
}

// ---------------------------------------------------------------------
// Posting operations (library, called from the owning process).
// ---------------------------------------------------------------------

// ISend starts a send of n bytes at buf[off:] to dst with the given
// match value. It returns immediately; completion is observed through
// Wait/Test. Local destinations take the one-copy shared-memory path;
// messages above the large threshold use the rendezvous pull protocol;
// everything else is sent eagerly.
func (ep *Endpoint) ISend(p *sim.Proc, dst proto.Addr, match uint64, buf *hostmem.Buffer, off, n int) *Request {
	r := &Request{ep: ep, dst: dst, MatchInfo: match, buf: buf, off: off, n: n}
	switch {
	case dst.Host == ep.S.H.Name:
		ep.localSend(p, r)
	case n > ep.S.Cfg.LargeThreshold:
		ep.rndvSend(p, r)
	default:
		ep.eagerSendOp(p, r)
	}
	return r
}

// IRecv posts a receive of up to n bytes into buf[off:] for messages
// whose match value equals match under mask. Unexpected messages that
// already arrived are matched (and consumed) first, in arrival order.
func (ep *Endpoint) IRecv(p *sim.Proc, match, mask uint64, buf *hostmem.Buffer, off, n int) *Request {
	ep.core().RunOn(p, cpu.UserLib, sim.Duration(ep.S.H.P.OMXLibPickupCost))
	r := &Request{ep: ep, isRecv: true, match: match, mask: mask, buf: buf, off: off, n: n}

	// Unexpected queue first (arrival order).
	for i, u := range ep.ux {
		if !matches(match, mask, u.match) {
			continue
		}
		ep.ux = append(ep.ux[:i], ep.ux[i+1:]...)
		switch u.kind {
		case uxEager:
			n := min(u.msgLen, r.n)
			if n > 0 {
				d := ep.S.H.Copy.Memcpy(r.buf, r.off, u.tmp, 0, n, ep.Core)
				ep.core().RunOn(p, cpu.UserLib, d)
			}
			ep.completeRecv(r, u.src, u.match, n)
		case uxRndv:
			ep.startPull(p, r, u)
		case uxLocal:
			ep.localPull(p, r, u.lm)
		}
		return r
	}

	// In-progress unexpected assemblies may be claimed by a new post.
	// Candidate selection must not depend on Go map iteration order:
	// with several matching partial messages (wildcard masks under
	// reordering), the lowest (source, sequence) wins, keeping runs
	// bit-reproducible.
	var claim *assembly
	for _, c := range ep.rxChans {
		for _, a := range c.asm {
			if a.dst == nil && matches(match, mask, a.match) && (claim == nil || claimBefore(a, claim)) {
				claim = a
			}
		}
	}
	if claim != nil {
		claim.dst = r
		if claim.arrived > 0 && claim.tmp != nil {
			ep.claimArrived(p, r, claim.got, claim.arrived, claim.msgLen, claim.tmp)
		}
		claim.tmp = nil
		return r
	}

	ep.posted = append(ep.posted, r)
	return r
}

// claimBefore orders claim candidates deterministically (see
// proto.ClaimBefore).
func claimBefore(a, b *assembly) bool {
	return proto.ClaimBefore(a.src, a.seq, b.src, b.seq)
}

// claimArrived copies the already-arrived fragments of a claimed
// in-progress assembly from its temporary storage into the posted
// receive, following proto.CopyPlan: a contiguous prefix (the
// loss-free case) moves as one memcpy; with holes — retransmission or
// cross-NIC skew still in flight — each arrived fragment is copied at
// its own offset, because a prefix copy would silently drop data that
// arrived beyond the first hole and will never be retransmitted.
func (ep *Endpoint) claimArrived(p *sim.Proc, r *Request, got uint64, arrived, msgLen int, tmp *hostmem.Buffer) {
	limit := min(msgLen, r.n)
	for _, run := range proto.CopyPlan(got, arrived, proto.MediumFragSize, limit, true) {
		d := ep.S.H.Copy.Memcpy(r.buf, r.off+run.Off, tmp, run.Off, run.N, ep.Core)
		ep.core().RunOn(p, cpu.UserLib, d)
	}
}

// Wait blocks p until r completes, running the library progress engine
// (event processing, matching, eager copies) on the endpoint's core.
func (ep *Endpoint) Wait(p *sim.Proc, r *Request) {
	for !r.done {
		if !ep.Progress(p) {
			p.WaitFor(ep.evSig, func() bool { return len(ep.evq) > 0 })
		}
	}
}

// Test reports whether r completed, after a zero-cost progress pass
// over already-queued events.
func (ep *Endpoint) Test(p *sim.Proc, r *Request) bool {
	ep.Progress(p)
	return r.done
}

// Progress drains the endpoint's event queue, charging library CPU
// time per event. It reports whether any event was processed.
func (ep *Endpoint) Progress(p *sim.Proc) bool {
	if len(ep.evq) == 0 {
		return false
	}
	for len(ep.evq) > 0 {
		ev := ep.evq[0]
		ep.evq = ep.evq[1:]
		ep.core().RunOn(p, cpu.UserLib, sim.Duration(ep.S.H.P.OMXLibPickupCost))
		ep.handleEvent(p, ev)
	}
	return true
}

func (ep *Endpoint) handleEvent(p *sim.Proc, ev *event) {
	switch ev.kind {
	case evEagerFrag:
		ep.handleEagerFrag(p, ev)
	case evRndv:
		ep.handleRndv(p, ev)
	case evLargeDone:
		d := ep.unpinCost(ev.req.buf, ev.req.n)
		if d > 0 {
			ep.core().RunOn(p, cpu.DriverCmd, d)
		}
		ev.req.done = true
	case evSendDone:
		d := ep.unpinCost(ev.req.buf, ev.req.n)
		if d > 0 {
			ep.core().RunOn(p, cpu.DriverCmd, d)
		}
		ev.req.done = true
	case evEagerAcked:
		for _, r := range ev.reqs {
			r.done = true
		}
	case evLocalMsg:
		ep.handleLocalMsg(p, ev)
	case evLocalDone:
		ev.req.done = true
	}
}

// handleEagerFrag is the library half of eager reception: dedup,
// match, copy out of the receive ring (the second copy of the paper's
// Figure 2), reassemble, complete.
func (ep *Endpoint) handleEagerFrag(p *sim.Proc, ev *event) {
	c := ep.rxChan(ev.src)
	if c.isDup(ev.seq) {
		// Duplicate of a fully received message that slipped past the
		// driver check (completed between BH and library processing):
		// drop payload, make sure an ack goes out.
		ep.releaseSlot(ev)
		ep.S.Stats.DupFrags++
		ep.forceAck(c)
		return
	}
	a := c.asm[ev.seq]
	if a == nil {
		a = &assembly{src: ev.src, seq: ev.seq, match: ev.match, msgLen: ev.msgLen, fragCnt: ev.fragCnt}
		// Match against posted receives at first sight of the message.
		for i, r := range ep.posted {
			if matches(r.match, r.mask, ev.match) {
				ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
				a.dst = r
				break
			}
		}
		if a.dst == nil && ev.msgLen > 0 {
			a.tmp = ep.S.H.Alloc(ev.msgLen)
		}
		c.asm[ev.seq] = a
	}
	bit := uint64(1) << ev.fragID
	if a.got&bit != 0 {
		ep.releaseSlot(ev)
		ep.S.Stats.DupFrags++
		return
	}
	a.got |= bit
	a.arrived++

	// Copy the payload to its destination (user buffer if matched,
	// temporary storage otherwise).
	dstBuf, dstOff := a.tmp, ev.offset
	limit := ev.msgLen
	if a.dst != nil {
		dstBuf, dstOff = a.dst.buf, a.dst.off+ev.offset
		limit = min(ev.msgLen, a.dst.n)
	}
	n := ev.dataLen
	if ev.offset+n > limit {
		n = limit - ev.offset // truncated receive
	}
	if n > 0 && dstBuf != nil {
		var d sim.Duration
		if ev.inline != nil {
			copy(dstBuf.Data[dstOff:dstOff+n], ev.inline[:n])
			d = ep.S.H.Copy.RawTime(n, ep.S.H.P.MemcpyL2Rate)
			dstBuf.Touch(ep.Core, n)
		} else {
			d = ep.S.H.Copy.Memcpy(dstBuf, dstOff, ep.ring.Buf, ep.ring.Off(ev.slot), n, ep.Core)
		}
		ep.core().RunOn(p, cpu.UserLib, d)
	}
	ep.releaseSlot(ev)

	if a.arrived == a.fragCnt {
		delete(c.asm, ev.seq)
		c.markComplete(ev.seq)
		if a.dst != nil {
			ep.completeRecv(a.dst, a.src, a.match, min(a.msgLen, a.dst.n))
		} else {
			ep.ux = append(ep.ux, &uxMsg{kind: uxEager, src: a.src, match: a.match, seq: a.seq, msgLen: a.msgLen, tmp: a.tmp})
		}
		ep.scheduleAck(c)
	}
}

func (ep *Endpoint) releaseSlot(ev *event) {
	if ev.slot >= 0 {
		ep.ring.Put(ev.slot)
	}
}

func (ep *Endpoint) completeRecv(r *Request, src proto.Addr, match uint64, n int) {
	r.Len = n
	r.SenderAddr = src
	r.MatchInfo = match
	r.done = true
}

// handleRndv processes a rendezvous request event: record it in the
// channel sequence space (it consumes a sequence number for
// reliability), then match or queue it.
func (ep *Endpoint) handleRndv(p *sim.Proc, ev *event) {
	c := ep.rxChan(ev.src)
	if c.isDup(ev.seq) {
		return // duplicate
	}
	c.markComplete(ev.seq)
	ep.scheduleAck(c)
	u := &uxMsg{kind: uxRndv, src: ev.src, match: ev.match, seq: ev.seq, msgLen: ev.msgLen, handle: ev.handle}
	for i, r := range ep.posted {
		if matches(r.match, r.mask, ev.match) {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			ep.startPull(p, r, u)
			return
		}
	}
	ep.ux = append(ep.ux, u)
}

// handleLocalMsg matches an intra-node message or queues it.
func (ep *Endpoint) handleLocalMsg(p *sim.Proc, ev *event) {
	for i, r := range ep.posted {
		if matches(r.match, r.mask, ev.lm.match) {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			ep.localPull(p, r, ev.lm)
			return
		}
	}
	ep.ux = append(ep.ux, &uxMsg{kind: uxLocal, src: ev.lm.srcAddr, match: ev.lm.match, msgLen: ev.lm.n, lm: ev.lm})
}

// ---------------------------------------------------------------------
// Send paths (library side).
// ---------------------------------------------------------------------

// eagerSendOp sends tiny/small/medium messages: a system call, then
// per-fragment zero-copy skbuff builds in the driver. Completion comes
// with the (possibly piggybacked) cumulative ack.
func (ep *Endpoint) eagerSendOp(p *sim.Proc, r *Request) {
	s := ep.S
	tc := ep.txChan(r.dst)
	r.seq = tc.nextTxSeq()
	frags := proto.MediumFragsOf(r.n)
	cost := sim.Duration(s.H.P.SyscallCost + int64(frags)*s.H.P.OMXTxBuildCost)
	ep.core().RunOn(p, cpu.DriverCmd, cost)
	tc.unacked = append(tc.unacked, &eagerSend{seq: r.seq, req: r, match: r.MatchInfo, buf: r.buf, off: r.off, n: r.n, sentAt: p.Now()})
	s.transmitEager(ep, tc, r.seq, r.MatchInfo, r.buf, r.off, r.n)
	s.Stats.EagerSent++
	ep.armEagerRtx(tc)
}

// transmitEager builds and transmits the fragment frames of one eager
// message (also used by retransmission).
func (s *Stack) transmitEager(ep *Endpoint, tc *txChan, seq uint32, match uint64, buf *hostmem.Buffer, off, n int) {
	frags := proto.MediumFragsOf(n)
	ack := ep.takeAck(tc.dst)
	for f := 0; f < frags; f++ {
		fo := f * proto.MediumFragSize
		fl := min(proto.MediumFragSize, n-fo)
		if n <= proto.SmallMax {
			fl = n
		}
		var payload []byte
		if fl > 0 {
			payload = make([]byte, fl)
			copy(payload, buf.Data[off+fo:off+fo+fl])
		}
		// Fragments stripe across NIC lanes (reassembly is bitmap-based
		// and hole-aware, so cross-lane skew cannot corrupt anything).
		s.transmitOn(s.laneOf(seq, f), tc.dst, &proto.Eager{
			Src: ep.Addr(), Dst: tc.dst,
			Match: match, Seq: seq, MsgLen: n,
			FragID: f, FragCount: frags, Offset: fo,
			AckSeq: ack,
		}, payload)
	}
}

// armEagerRtx (re)arms the eager retransmission timer for a channel,
// backing off exponentially while the peer shows no progress (any
// cumulative-ack advance resets the attempt count).
func (ep *Endpoint) armEagerRtx(tc *txChan) {
	if tc.rtx.Pending() || len(tc.unacked) == 0 {
		return
	}
	s := ep.S
	tc.rtx = s.H.E.Schedule(s.rtxTimeout(tc.dst, tc.rtxAttempts), func() {
		tc.rtx = sim.Timer{}
		if len(tc.unacked) == 0 {
			return
		}
		tc.rtxAttempts++
		s.Stats.EagerRetransmits++
		s.traceRetransmit(tc.unacked[0].seq, -1, 0)
		// Rebuild and resend every unacked message; receivers dedup.
		// One timer, one softirq context: the rebuild runs on the
		// primary NIC's interrupt core even though the fragments then
		// re-stripe across lanes (transmitEager recomputes each
		// fragment's lane).
		var build int64
		for _, es := range tc.unacked {
			build += int64(proto.MediumFragsOf(es.n)) * s.H.P.OMXTxBuildCost
		}
		irq := s.H.Sys.Core(s.H.NIC.IRQCore)
		unacked := append([]*eagerSend(nil), tc.unacked...)
		for _, es := range unacked {
			es.rtxed = true // Karn: never sample a retransmitted send
		}
		irq.Exec(cpu.BHProc, sim.Duration(build), func() {
			for _, es := range unacked {
				s.transmitEager(ep, tc, es.seq, es.match, es.buf, es.off, es.n)
			}
		})
		ep.armEagerRtx(tc)
	})
}

// rndvSend starts a large-message send: pin the buffer (registration
// cache permitting), register a sender handle, transmit the
// rendezvous request.
func (ep *Endpoint) rndvSend(p *sim.Proc, r *Request) {
	s := ep.S
	tc := ep.txChan(r.dst)
	r.seq = tc.nextTxSeq()
	cost := sim.Duration(s.H.P.SyscallCost+s.H.P.OMXTxBuildCost) + ep.pinCost(r.buf, r.n)
	ep.core().RunOn(p, cpu.DriverCmd, cost)

	s.nextHandle++
	ls := &largeSend{handle: s.nextHandle, ep: ep, req: r, dst: r.dst, buf: r.buf, off: r.off, n: r.n, seq: r.seq, sentAt: p.Now()}
	s.sends[ls.handle] = ls
	s.transmitRndv(ls)
	s.Stats.RndvSent++
	s.armRndvRtx(ls)
}

func (s *Stack) transmitRndv(ls *largeSend) {
	s.transmitOn(s.laneOf(ls.seq, 0), ls.dst, &proto.RndvRequest{
		Src: ls.ep.Addr(), Dst: ls.dst,
		Match: ls.req.MatchInfo, Seq: ls.seq, MsgLen: ls.n,
		SenderHandle: ls.handle,
		AckSeq:       ls.ep.takeAck(ls.dst),
	}, nil)
}

// armRndvRtx watches a rendezvous send for progress; without any it
// re-sends the request, backing off exponentially until the receiver
// answers (progress resets the backoff).
func (s *Stack) armRndvRtx(ls *largeSend) {
	ls.rtx = s.H.E.Schedule(s.rtxTimeout(ls.dst, ls.attempts), func() {
		if ls.finished {
			return
		}
		if !ls.pulled {
			// The request (or everything since) was lost: resend it.
			ls.attempts++
			s.Stats.RndvRetransmits++
			s.traceRetransmit(ls.seq, -1, s.laneOf(ls.seq, 0))
			s.transmitRndv(ls)
		} else {
			ls.attempts = 0
		}
		ls.pulled = false // expect further progress before next firing
		s.armRndvRtx(ls)
	})
}

// startPull is the receiver-side system call that launches the pull
// protocol once a rendezvous matched: pin the destination, create the
// pull state, request the first pipelined blocks.
func (ep *Endpoint) startPull(p *sim.Proc, r *Request, u *uxMsg) {
	s := ep.S
	n := min(u.msgLen, r.n)
	cost := sim.Duration(s.H.P.SyscallCost) + ep.pinCost(r.buf, n)
	ep.core().RunOn(p, cpu.DriverCmd, cost)

	s.nextHandle++
	lp := &largePull{
		handle: s.nextHandle, ep: ep, req: r,
		src: u.src, senderHandle: u.handle,
		key: rndvKey{src: u.src, dst: ep.ID, seq: u.seq},
		buf: r.buf, off: r.off, n: n,
		frags:  proto.FragsOf(n),
		blocks: make(map[int]*pullBlock),
	}
	lp.numBlocks = (lp.frags + s.Cfg.PullBlockFrags - 1) / s.Cfg.PullBlockFrags
	lp.useIOAT = s.Cfg.IOAT && !s.Cfg.SkipBHCopy && n >= s.Cfg.IOATMinMsg && proto.LargeFragSize >= s.Cfg.IOATMinFrag
	if lp.useIOAT {
		// One DMA channel per NIC lane: a striped message overlaps its
		// lanes' copies on distinct channels (a single-NIC message keeps
		// the paper's one-channel-per-message assignment).
		for i := 0; i < s.lanes; i++ {
			lp.chs = append(lp.chs, s.H.IOAT.PickChannel())
		}
		lp.lastSeq = make([]uint64, s.lanes)
	}
	if s.adaptiveWin {
		lp.aw = s.pullWindowFor(lp.src)
		lp.lastWin = lp.aw.Window()
	}
	lp.startedAt = s.H.E.Now()
	r.MatchInfo = u.match
	r.SenderAddr = u.src
	s.pulls[lp.handle] = lp
	st := s.rndvSeen[lp.key]
	if st == nil {
		st = &rndvState{sender: u.handle}
		s.rndvSeen[lp.key] = st
	}
	st.handle = lp.handle

	for b := 0; b < s.pullWindow(lp) && lp.nextBlock < lp.numBlocks; b++ {
		s.sendPullBlock(lp, lp.nextBlock, 0)
		lp.nextBlock++
	}
}
