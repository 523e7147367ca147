package core

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/hostmem"
	"omxsim/internal/mxlib"
	"omxsim/internal/proto"
	"omxsim/sim"
)

// Endpoint is one Open-MX communication endpoint: the shared MX
// library (matching, eager reassembly, progress) over the
// driver-shared event ring, plus the driver's per-peer channels. An
// endpoint is used by a single simulated process, bound to one core.
type Endpoint struct {
	*mxlib.Lib[*event]

	S    *Stack
	ID   int
	Core int // the core the owning process runs on

	// Receive ring: statically pinned kernel pages the bottom half
	// copies eager payloads into, one 4 kiB slot per fragment.
	ring *hostmem.Ring

	// Per-peer channels.
	txChans map[proto.Addr]*txChan
	rxChans map[proto.Addr]*rxChan
}

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
	kind evKind
	mxlib.Frag
	handle int // rendezvous sender handle
	req    *mxlib.Request
	reqs   []*mxlib.Request // eager sends completed by an ack
	msg    *mxlib.Message   // intra-node message
}

// txChan is the reliability state towards one remote endpoint: the
// shared sequence, cumulative-ack and retransmission-timer machinery
// over the channel's unacked eager sends.
type txChan = proto.TxChan[*eagerSend]

// eagerSend is one unacked eager message: a retransmission rebuilds
// its frames from the (still owned) user buffer.
type eagerSend struct {
	proto.TxSend
	req *mxlib.Request
}

// rxChan is the receive-side state from one remote endpoint:
// cumulative-ack tracking and the deferred-ack timer.
type rxChan struct {
	src proto.Addr
	// win is the shared cumulative completion window (the wire
	// semantics both stacks must agree on live in internal/proto).
	win proto.Window
	// fragSeen is the driver-side per-message fragment bitmap:
	// retransmitted duplicates of individual fragments are dropped in
	// the bottom half, before they can consume a ring slot or queue
	// an event the library might never process (entries retire when
	// the message completes and win.IsDup takes over).
	fragSeen    map[uint32]uint64
	lastAckSent uint32
	ackTimer    sim.Timer
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
		txChans: make(map[proto.Addr]*txChan),
		rxChans: make(map[proto.Addr]*rxChan),
	}
	// The Open-MX library claims a hole-free prefix in one memcpy.
	ep.Lib = mxlib.New(s.H, coreID, true, ep.copyFrag, ep.handleEvent)
	s.endpoints[id] = ep
	return ep
}

// Addr returns this endpoint's network address.
func (ep *Endpoint) Addr() proto.Addr { return ep.S.addr(ep.ID) }

func (ep *Endpoint) core() *cpu.Core { return ep.S.H.Sys.Core(ep.Core) }

func (ep *Endpoint) txChan(dst proto.Addr) *txChan {
	c := ep.txChans[dst]
	if c == nil {
		c = &txChan{Dst: dst}
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
			fragSeen: make(map[uint32]uint64),
		}
		ep.rxChans[src] = c
	}
	return c
}

// markComplete records seq as fully received and advances the
// cumulative edge over any contiguous run it completes. The
// per-fragment bitmap retires with it: win.IsDup covers the whole
// message from here on.
func (c *rxChan) markComplete(seq uint32) {
	c.win.MarkComplete(seq)
	delete(c.fragSeen, seq)
}

// fragSeenBefore reports whether fragment fragID of message seq was
// already accepted — the driver-side duplicate check that keeps
// retransmitted fragments from consuming ring slots or queuing
// events the library might never drain.
func (c *rxChan) fragSeenBefore(seq uint32, fragID int) bool {
	return c.fragSeen[seq]&(uint64(1)<<uint(fragID)) != 0
}

// markFrag records fragment fragID of message seq as accepted. Only
// accepted fragments are recorded: a fragment dropped for lack of a
// ring slot must stay unseen so its retransmission is let through.
func (c *rxChan) markFrag(seq uint32, fragID int) {
	c.fragSeen[seq] |= uint64(1) << uint(fragID)
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

// ISend starts a send of n bytes at buf[off:] to dst with the given
// match value. It returns immediately; completion is observed through
// Wait/Test. Local destinations take the one-copy shared-memory path;
// messages above the large threshold use the rendezvous pull protocol;
// everything else is sent eagerly. Receives, Wait, Test and Progress
// are the shared library's (mxlib.Lib).
func (ep *Endpoint) ISend(p *sim.Proc, dst proto.Addr, match uint64, buf *hostmem.Buffer, off, n int) *mxlib.Request {
	r := mxlib.NewRequest(match, buf, off, n)
	switch {
	case dst.Host == ep.S.H.Name:
		ep.localSend(p, dst, r)
	case n > ep.S.Cfg.LargeThreshold:
		ep.rndvSend(p, dst, r)
	default:
		ep.eagerSendOp(p, dst, r)
	}
	return r
}

// handleEvent is the library's dispatch of one driver event.
func (ep *Endpoint) handleEvent(p *sim.Proc, ev *event) {
	switch ev.kind {
	case evEagerFrag:
		ep.handleEagerFrag(p, ev)
	case evRndv:
		ep.handleRndv(p, ev)
	case evLargeDone, evSendDone:
		// Deregistration is deferred with the registration cache.
		if d := ep.S.reg.UnpinCost(ev.req.Buf, ev.req.N, ep.S.H.P.UnpinPerPage); d > 0 {
			ep.core().RunOn(p, cpu.DriverCmd, d)
		}
		ev.req.Finish()
	case evEagerAcked:
		for _, r := range ev.reqs {
			r.Finish()
		}
	case evLocalMsg:
		ep.Arrive(p, ev.msg)
	case evLocalDone:
		ev.req.Finish()
	}
}

// handleEagerFrag is the Open-MX half of eager reception around the
// shared library's match, copy out of the receive ring (the second
// copy of the paper's Figure 2), reassembly and completion: duplicate
// suppression before it, ring-slot release and the deferred ack
// after it.
func (ep *Endpoint) handleEagerFrag(p *sim.Proc, ev *event) {
	c := ep.rxChan(ev.Src)
	if c.win.IsDup(ev.Seq) {
		// Duplicate of a fully received message that slipped past the
		// driver check (completed between BH and library processing):
		// drop payload, make sure an ack goes out.
		ep.releaseSlot(ev)
		ep.S.Stats.DupFrags++
		ep.forceAck(c)
		return
	}
	fresh, complete := ep.EagerFrag(p, &ev.Frag)
	ep.releaseSlot(ev)
	if !fresh {
		ep.S.Stats.DupFrags++
		return
	}
	if complete {
		c.markComplete(ev.Seq)
		ep.scheduleAck(c)
	}
}

// copyFrag copies an eager fragment's payload to its destination:
// out of the receive ring, or for a tiny message out of the event
// itself.
func (ep *Endpoint) copyFrag(f *mxlib.Frag, dst *hostmem.Buffer, off, n int) sim.Duration {
	if f.Inline == nil {
		return ep.S.H.Copy.Memcpy(dst, off, ep.ring.Buf, ep.ring.Off(f.Slot), n, ep.Core)
	}
	copy(dst.Data[off:off+n], f.Inline[:n])
	d := ep.S.H.Copy.RawTime(n, ep.S.H.P.MemcpyL2Rate)
	dst.Touch(ep.Core, n)
	return d
}

func (ep *Endpoint) releaseSlot(ev *event) {
	if ev.Slot >= 0 {
		ep.ring.Put(ev.Slot)
	}
}

// handleRndv processes a rendezvous request event: record it in the
// channel sequence space (it consumes a sequence number for
// reliability), then match or queue it; a matched request starts the
// pull.
func (ep *Endpoint) handleRndv(p *sim.Proc, ev *event) {
	c := ep.rxChan(ev.Src)
	if c.win.IsDup(ev.Seq) {
		return // duplicate
	}
	c.markComplete(ev.Seq)
	ep.scheduleAck(c)
	ep.Arrive(p, &mxlib.Message{
		Src: ev.Src, Match: ev.Match, Len: ev.MsgLen,
		Start: func(p *sim.Proc, r *mxlib.Request) { ep.startPull(p, r, ev) },
	})
}

// ---------------------------------------------------------------------
// Send paths (library side).
// ---------------------------------------------------------------------

// eagerSendOp sends tiny/small/medium messages: a system call, then
// per-fragment zero-copy skbuff builds in the driver. Completion comes
// with the (possibly piggybacked) cumulative ack.
func (ep *Endpoint) eagerSendOp(p *sim.Proc, dst proto.Addr, r *mxlib.Request) {
	s := ep.S
	tc := ep.txChan(dst)
	seq := tc.Next()
	frags := proto.MediumFragsOf(r.N)
	cost := sim.Duration(s.H.P.SyscallCost + int64(frags)*s.H.P.OMXTxBuildCost)
	ep.core().RunOn(p, cpu.DriverCmd, cost)
	tc.Unacked = append(tc.Unacked, &eagerSend{TxSend: proto.TxSend{Seq: seq, SentAt: p.Now()}, req: r})
	s.transmitEager(ep, tc.Dst, seq, r)
	s.Stats.EagerSent++
	ep.armEagerRtx(tc)
}

// transmitEager builds and transmits the fragment frames of one eager
// message (also used by retransmission). Each frame's payload is a
// capped slice of the request's source buffer, not a copy — the
// zero-copy skbuff build the driver charges for: the request completes
// only when the peer's cumulative ack covers it, so the source stays
// untouched while any of its frames can still be read, and
// retransmissions rebuild from it.
func (s *Stack) transmitEager(ep *Endpoint, dst proto.Addr, seq uint32, r *mxlib.Request) {
	n := r.N
	frags := proto.MediumFragsOf(n)
	ack := ep.takeAck(dst)
	for f := 0; f < frags; f++ {
		fo := f * proto.MediumFragSize
		fl := min(proto.MediumFragSize, n-fo)
		if n <= proto.SmallMax {
			fl = n
		}
		var payload []byte
		if fl > 0 {
			o := r.Off + fo
			payload = r.Buf.Data[o : o+fl : o+fl]
		}
		// Fragments stripe across NIC lanes (reassembly is bitmap-based
		// and hole-aware, so cross-lane skew cannot corrupt anything).
		s.transmitOn(s.laneOf(seq, f), dst, &proto.Eager{
			Src: ep.Addr(), Dst: dst,
			Match: r.Match(), Seq: seq, MsgLen: n,
			FragID: f, FragCount: frags, Offset: fo,
			AckSeq: ack,
		}, payload)
	}
}

// armEagerRtx (re)arms the eager retransmission timer for a channel,
// backing off exponentially while the peer shows no progress (any
// cumulative-ack advance resets the attempt count).
func (ep *Endpoint) armEagerRtx(tc *txChan) {
	s := ep.S
	tc.Arm(s.H.E, &s.peers, func(unacked []*eagerSend) {
		s.Stats.EagerRetransmits++
		s.Trace.Retransmit(s.H.E.Now(), unacked[0].Seq, -1, 0)
		// Rebuild and resend every unacked message; receivers dedup.
		// One timer, one softirq context: the rebuild runs on the
		// primary NIC's interrupt core even though the fragments then
		// re-stripe across lanes (transmitEager recomputes each
		// fragment's lane).
		var build int64
		for _, es := range unacked {
			build += int64(proto.MediumFragsOf(es.req.N)) * s.H.P.OMXTxBuildCost
		}
		irq := s.H.Sys.Core(s.H.NIC.IRQCore)
		unacked = append([]*eagerSend(nil), unacked...)
		irq.Exec(cpu.BHProc, sim.Duration(build), func() {
			for _, es := range unacked {
				s.transmitEager(ep, tc.Dst, es.Seq, es.req)
			}
		})
	})
}

// rndvSend starts a large-message send: pin the buffer (registration
// cache permitting), register a sender handle, transmit the
// rendezvous request.
func (ep *Endpoint) rndvSend(p *sim.Proc, dst proto.Addr, r *mxlib.Request) {
	s := ep.S
	seq := ep.txChan(dst).Next()
	pin := s.reg.PinCost(r.Buf, r.N, s.H.P.PinPerPage, s.H.P.UnpinPerPage)
	cost := sim.Duration(s.H.P.SyscallCost+s.H.P.OMXTxBuildCost) + pin
	ep.core().RunOn(p, cpu.DriverCmd, cost)

	s.nextHandle++
	ls := &largeSend{handle: s.nextHandle, ep: ep, req: r, dst: dst, buf: r.Buf, off: r.Off, n: r.N, seq: seq, sentAt: p.Now()}
	s.sends[ls.handle] = ls
	s.transmitRndv(ls)
	s.Stats.RndvSent++
	s.armRndvRtx(ls)
}

func (s *Stack) transmitRndv(ls *largeSend) {
	s.transmitOn(s.laneOf(ls.seq, 0), ls.dst, &proto.RndvRequest{
		Src: ls.ep.Addr(), Dst: ls.dst,
		Match: ls.req.Match(), Seq: ls.seq, MsgLen: ls.n,
		SenderHandle: ls.handle,
		AckSeq:       ls.ep.takeAck(ls.dst),
	}, nil)
}

// armRndvRtx watches a rendezvous send for progress; without any it
// re-sends the request, backing off exponentially until the receiver
// answers (progress resets the backoff).
func (s *Stack) armRndvRtx(ls *largeSend) {
	ls.rtx = s.H.E.Schedule(s.peers.RTO(ls.dst, ls.attempts), func() {
		if ls.finished {
			return
		}
		if !ls.pulled {
			// The request (or everything since) was lost: resend it.
			ls.attempts++
			s.Stats.RndvRetransmits++
			s.Trace.Retransmit(s.H.E.Now(), ls.seq, -1, s.laneOf(ls.seq, 0))
			s.transmitRndv(ls)
		} else {
			ls.attempts = 0
		}
		ls.pulled = false // expect further progress before next firing
		s.armRndvRtx(ls)
	})
}

// startPull is the receiver-side system call that launches the pull
// protocol once rendezvous request ev matched r: pin the destination,
// create the pull state, request the first pipelined blocks.
func (ep *Endpoint) startPull(p *sim.Proc, r *mxlib.Request, ev *event) {
	s := ep.S
	n := r.Len()
	cost := sim.Duration(s.H.P.SyscallCost) + s.reg.PinCost(r.Buf, n, s.H.P.PinPerPage, s.H.P.UnpinPerPage)
	ep.core().RunOn(p, cpu.DriverCmd, cost)

	s.nextHandle++
	lp := &largePull{
		handle: s.nextHandle, ep: ep, req: r,
		src: ev.Src, senderHandle: ev.handle,
		key: proto.RndvKey{Src: ev.Src, Dst: ep.ID, Seq: ev.Seq},
		buf: r.Buf, off: r.Off, n: n,
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
		lp.aw = s.peers.Window(lp.src)
		lp.lastWin = lp.aw.Window()
	}
	lp.startedAt = s.H.E.Now()
	s.pulls[lp.handle] = lp
	s.rndv.Record(lp.key, ev.handle)

	for b := 0; b < s.pullWindow(lp) && lp.nextBlock < lp.numBlocks; b++ {
		s.sendPullBlock(lp, lp.nextBlock, 0)
		lp.nextBlock++
	}
}
