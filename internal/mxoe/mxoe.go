// Package mxoe models Myricom's native Myrinet Express over Ethernet
// stack on a Myri-10G NIC: the performance baseline of every figure in
// the paper, and the interoperability peer of Open-MX (both speak the
// internal/proto wire format — a key Open-MX feature).
//
// The defining differences from Open-MX are architectural, and the
// model captures exactly those:
//
//   - OS bypass: posting a send or receive is a user-level write to
//     the NIC (MXPostCost), no system call, no driver;
//   - receive processing runs in NIC firmware: no interrupt, no
//     bottom half, no host CPU;
//   - eager data is deposited by NIC DMA into a host receive queue and
//     copied ONCE by the library after matching (Open-MX needs two
//     copies);
//   - large messages are deposited by DMA directly into the pinned
//     destination buffer — zero host copies — after a firmware-level
//     rendezvous/pull exchange, paced by the firmware's control
//     traffic (the ~4 % that puts MX at 1140 MiB/s instead of the
//     1186 MiB/s line rate);
//   - registration is more expensive per page than Open-MX's (the
//     NIC's translation table must be updated), making the
//     registration cache matter more (Figure 11).
//
// Reliability is handled entirely by the firmware, as on real
// Myri-10G boards: cumulative acks, duplicate suppression,
// retransmission with exponential backoff and pull-block retry all
// run at frame-arrival time with zero host CPU (see reliability.go).
// On a clean link none of it costs anything — no timer fires and no
// extra frame is emitted.
package mxoe

import (
	"fmt"

	"omxsim/internal/core"
	"omxsim/internal/cpu"
	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/internal/wire"
	"omxsim/sim"
)

// Config for the native stack.
type Config struct {
	// RegCache enables the registration cache: per-stack, unbounded
	// unless RegCacheEntries caps it.
	RegCache bool
	// RegCacheEntries bounds the registration cache to this many
	// resident regions (LRU eviction past the bound); 0 = unbounded.
	RegCacheEntries int
	// DCATargetCore, on a platform with HasDCA, steers the firmware's
	// DMA deposits at this core's LLC. 0 (the default) targets the
	// receiving endpoint's own core — native MX firmware knows the
	// consumer, unlike the generic driver which can only follow the
	// interrupt. Ignored without HasDCA.
	DCATargetCore int
	// RingSlots is the eager receive queue capacity (4 kiB slots).
	RingSlots int
	// RetransmitTimeout is the firmware's base retransmission timeout
	// for unacked eager messages, rendezvous requests and pull
	// blocks; RetransmitBackoff multiplies it per consecutive
	// unanswered attempt (1 disables), capped at RetransmitMax.
	RetransmitTimeout sim.Duration
	RetransmitBackoff float64
	RetransmitMax     sim.Duration
	// Adaptive enables the firmware's self-tuning tier (adaptive.go):
	// per-peer RTT-derived retransmission timeouts (unless an explicit
	// RetransmitTimeout pins the static base) and AIMD-sized pull
	// windows. Off, the firmware behaves bit-identically to the fixed
	// two-blocks-per-lane configuration.
	Adaptive bool
}

// Stats counts firmware protocol activity for tests and diagnostics.
type Stats struct {
	EagerSent        int64
	RndvSent         int64
	FragsSent        int64
	EagerRetransmits int64
	RndvRetransmits  int64
	PullRetransmits  int64
	DupFrags         int64
	QueueDrops       int64
	// NICTxFrames counts frames transmitted per NIC lane — the
	// striping balance on a multi-NIC host (one entry per NIC).
	NICTxFrames []int64
	// Coll counts NIC-offloaded collective activity (coll.go).
	Coll CollStats
}

// Retransmits sums every retransmission class.
func (st Stats) Retransmits() int64 {
	return st.EagerRetransmits + st.RndvRetransmits + st.PullRetransmits
}

// Stack is the native MXoE instance of one host.
type Stack struct {
	H   *host.Host
	Cfg Config

	// lanes is the host's NIC count. The firmware stripes eager
	// fragments and pull blocks round-robin across lanes (real MX
	// firmware has no configurable hash policy) and widens its pull
	// window to two blocks per lane.
	lanes int

	endpoints map[int]*Endpoint
	sends     map[int]*mxSend
	pulls     map[int]*mxPull
	// rndvSeen deduplicates retransmitted rendezvous requests;
	// completed entries are bounded by the rndvDone FIFO (oldest
	// evicted past proto.RndvDedupWindow) so the map cannot grow
	// without bound and wrapped sequence numbers cannot hit ancient
	// entries.
	rndvSeen   map[rndvKey]*rndvState
	rndvDone   []rndvKey
	nextHandle int

	// Firmware collective-group state (coll.go): registered groups by
	// (group ID, endpoint), plus frames that arrived before the local
	// CollJoin.
	collGroups  map[collKey]*CollGroup
	collPending map[collKey][]*wire.Frame

	// Adaptive-tier state (adaptive.go): whether timeouts derive from
	// measured RTTs, and the per-peer estimators feeding them.
	adaptiveRTO bool
	rtt         map[proto.Addr]*proto.RTTEstimator
	pullWin     map[proto.Addr]*proto.AIMDWindow

	// Trace, when set, receives transport span and counter events
	// (pull blocks, collectives, retransmissions, SRTT samples) in the
	// host stack's TraceEvent format, for the Chrome trace exporter.
	Trace func(core.TraceEvent)

	// reg is the per-stack registration cache (Config.RegCache); nil
	// when disabled.
	reg *hostmem.RegCache

	Stats Stats
}

// RegStats snapshots the registration cache's counters (zero value
// when Config.RegCache is off).
func (s *Stack) RegStats() hostmem.RegStats {
	if s.reg == nil {
		return hostmem.RegStats{}
	}
	return s.reg.Stats()
}

// Attach builds a native MX stack on h, switching the NIC to firmware
// mode.
func Attach(h *host.Host, cfg Config) *Stack {
	// Adaptive RTO applies only when no explicit timeout pins the
	// static base — decided before the default is filled in.
	adaptiveRTO := cfg.Adaptive && cfg.RetransmitTimeout == 0
	if cfg.RingSlots == 0 {
		cfg.RingSlots = 512
	}
	if cfg.RetransmitTimeout == 0 {
		cfg.RetransmitTimeout = 50 * sim.Millisecond
	}
	if cfg.RetransmitBackoff == 0 {
		cfg.RetransmitBackoff = 2
	}
	if cfg.RetransmitMax == 0 {
		cfg.RetransmitMax = 16 * cfg.RetransmitTimeout
	}
	s := &Stack{
		H:         h,
		Cfg:       cfg,
		lanes:     h.Lanes(),
		endpoints: make(map[int]*Endpoint),
		sends:     make(map[int]*mxSend),
		pulls:     make(map[int]*mxPull),
		rndvSeen:  make(map[rndvKey]*rndvState),

		collGroups:  make(map[collKey]*CollGroup),
		collPending: make(map[collKey][]*wire.Frame),

		adaptiveRTO: adaptiveRTO,
	}
	if cfg.Adaptive {
		s.rtt = make(map[proto.Addr]*proto.RTTEstimator)
		s.pullWin = make(map[proto.Addr]*proto.AIMDWindow)
	}
	if cfg.RegCache {
		s.reg = hostmem.NewRegCache(cfg.RegCacheEntries)
	}
	s.Stats.NICTxFrames = make([]int64, s.lanes)
	for i, n := range h.NICs {
		lane := i
		n.SetFirmware(func(f *wire.Frame) { s.firmwareRx(lane, f) })
	}
	return s
}

// laneOf picks the transmit lane for one unit (eager fragment or pull
// block) of message seq: fixed round-robin, recomputed identically on
// retransmission so a lossy lane retries on itself.
func (s *Stack) laneOf(seq uint32, unit int) int {
	if s.lanes <= 1 {
		return 0
	}
	return (int(seq) + unit) % s.lanes
}

// Endpoint is one MX endpoint (user library + firmware queue state).
type Endpoint struct {
	S    *Stack
	ID   int
	Core int

	ring *hostmem.Ring // eager receive queue, one 4 kiB slot per fragment

	evq   []*event
	evSig *sim.Signal

	posted []*Request
	ux     []*uxMsg
	asm    map[asmKey]*assembly

	// Firmware reliability state, per peer.
	tx map[proto.Addr]*mxTxChan
	rx map[proto.Addr]*mxRxChan
}

// Request is an in-flight MX operation.
type Request struct {
	ep     *Endpoint
	isRecv bool
	done   bool

	Len        int
	SenderAddr proto.Addr
	MatchInfo  uint64

	match, mask uint64
	buf         *hostmem.Buffer
	off, n      int
	dst         proto.Addr
}

// Done reports completion.
func (r *Request) Done() bool { return r.done }

type evKind int

const (
	evEagerFrag evKind = iota
	evRndv
	evRecvDone
	evSendDone
	evCollDone
	evShm
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
	slot    int
	dataLen int
	handle  int
	req     *Request
	seg     *hostmem.Buffer // shared-memory payload segment
}

type uxKind int

const (
	uxEager uxKind = iota
	uxRndv
)

type uxMsg struct {
	kind   uxKind
	src    proto.Addr
	match  uint64
	seq    uint32
	msgLen int
	tmp    *hostmem.Buffer
	handle int
}

type asmKey struct {
	src proto.Addr
	seq uint32
}

type assembly struct {
	match   uint64
	msgLen  int
	fragCnt int
	got     uint64
	arrived int
	dst     *Request
	tmp     *hostmem.Buffer
}

type mxSend struct {
	handle int
	ep     *Endpoint
	req    *Request
	dst    proto.Addr
	seq    uint32
	buf    *hostmem.Buffer
	off, n int
	// Firmware request-retransmission state.
	rtx      sim.Timer
	attempts int
	pulled   bool
	// sampled flags that the request->first-pull RTT was already
	// taken (pulled cannot double as this: the rndv watchdog resets
	// it to probe for progress).
	sampled  bool
	finished bool
	// sentAt is the request's post time: the request -> first-pull
	// round trip is an RTT sample when nothing was retransmitted.
	sentAt sim.Time
}

type mxPull struct {
	handle       int
	ep           *Endpoint
	req          *Request
	src          proto.Addr
	senderHandle int
	key          rndvKey
	buf          *hostmem.Buffer
	off, n       int
	frags        int
	arrived      int
	nextBlock    int
	blocks       map[int]*mxBlock
	done         bool
	startedAt    sim.Time // pull start, for the whole-rendezvous trace span
	// aw is the transfer's AIMD window controller when the firmware
	// runs adaptive; nil keeps the fixed two-blocks-per-lane pipeline.
	aw *proto.AIMDWindow
}

// OpenEndpoint creates endpoint id bound to a core.
func (s *Stack) OpenEndpoint(id, coreID int) *Endpoint {
	if _, dup := s.endpoints[id]; dup {
		panic(fmt.Sprintf("mxoe: endpoint %d already open on %s", id, s.H.Name))
	}
	ep := &Endpoint{
		S: s, ID: id, Core: coreID,
		ring:  s.H.Mem.AllocRing(s.Cfg.RingSlots, proto.MediumFragSize),
		evSig: sim.NewSignal(),
		asm:   make(map[asmKey]*assembly),
		tx:    make(map[proto.Addr]*mxTxChan),
		rx:    make(map[proto.Addr]*mxRxChan),
	}
	s.endpoints[id] = ep
	return ep
}

// Addr returns the endpoint's address.
func (ep *Endpoint) Addr() proto.Addr { return proto.Addr{Host: ep.S.H.Name, EP: ep.ID} }

func (ep *Endpoint) core() *cpu.Core { return ep.S.H.Sys.Core(ep.Core) }

func (ep *Endpoint) pushEvent(ev *event) {
	ep.evq = append(ep.evq, ev)
	ep.evSig.Broadcast()
}

// pinCost models MX registration of an n-byte region: per-page cost
// including the NIC translation-table update, amortized by the
// registration cache.
func (ep *Endpoint) pinCost(buf *hostmem.Buffer, n int) sim.Duration {
	p := ep.S.H.P
	if ep.S.reg != nil {
		pinned, evicted := ep.S.reg.Acquire(buf, n)
		return sim.Duration(pinned*p.MXPinPerPage + evicted*p.UnpinPerPage)
	}
	buf.Pin()
	pages := int64((max(n, 1) + p.PageSize - 1) / p.PageSize)
	return sim.Duration(pages * p.MXPinPerPage)
}

func (ep *Endpoint) unpinCost(buf *hostmem.Buffer, n int) sim.Duration {
	if ep.S.Cfg.RegCache {
		return 0
	}
	buf.Unpin()
	pages := int64((max(n, 1) + ep.S.H.P.PageSize - 1) / ep.S.H.P.PageSize)
	return sim.Duration(pages * ep.S.H.P.UnpinPerPage)
}

func matches(recvMatch, recvMask, msgMatch uint64) bool {
	return recvMatch&recvMask == msgMatch&recvMask
}

// transmit hands a control frame to the primary NIC (lane 0).
func (s *Stack) transmit(dst proto.Addr, msg any, payload []byte) {
	s.transmitOn(0, dst, msg, payload)
}

// transmitOn hands a frame to the lane-th NIC, addressed to the
// peer's same-numbered lane (symmetric lane numbering, wire.LaneAddr).
func (s *Stack) transmitOn(lane int, dst proto.Addr, msg any, payload []byte) {
	s.Stats.NICTxFrames[lane]++
	s.H.NICs[lane].Transmit(&wire.Frame{
		Data:    payload,
		WireLen: len(payload) + s.H.P.OMXHeaderBytes,
		Msg:     msg,
		DstAddr: wire.LaneAddr(dst.Host, lane),
	})
}

// ISend posts a send: an OS-bypass NIC command. Intra-node messages
// take the library's shared-memory channel; eager messages stream
// immediately; large ones pin and send a rendezvous request.
func (ep *Endpoint) ISend(p *sim.Proc, dst proto.Addr, match uint64, buf *hostmem.Buffer, off, n int) *Request {
	s := ep.S
	r := &Request{ep: ep, dst: dst, MatchInfo: match, buf: buf, off: off, n: n}
	if dst.Host == s.H.Name {
		return ep.shmSend(p, r)
	}
	tc := ep.mxTx(dst)
	seq := tc.next()
	if n > 32*1024 {
		cost := sim.Duration(s.H.P.MXPostCost) + ep.pinCost(buf, n)
		ep.core().RunOn(p, cpu.UserLib, cost)
		s.nextHandle++
		ms := &mxSend{handle: s.nextHandle, ep: ep, req: r, dst: dst, seq: seq, buf: buf, off: off, n: n, sentAt: s.H.E.Now()}
		s.sends[ms.handle] = ms
		s.transmitOn(s.laneOf(seq, 0), dst, &proto.RndvRequest{
			Src: ep.Addr(), Dst: dst, Match: match, Seq: seq, MsgLen: n, SenderHandle: ms.handle,
		}, nil)
		s.Stats.RndvSent++
		s.armRndvRtx(ms)
		return r
	}
	ep.core().RunOn(p, cpu.UserLib, sim.Duration(s.H.P.MXPostCost))
	frags := proto.MediumFragsOf(n)
	u := &mxUnacked{seq: seq, sentAt: s.H.E.Now()}
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
		m := &proto.Eager{
			Src: ep.Addr(), Dst: dst, Match: match, Seq: seq, MsgLen: n,
			FragID: f, FragCount: frags, Offset: fo,
		}
		u.msgs = append(u.msgs, m)
		u.loads = append(u.loads, payload)
		// Fragments stripe round-robin across NIC lanes; the firmware
		// assembly bitmaps tolerate any cross-lane arrival order.
		s.transmitOn(s.laneOf(seq, f), dst, m, payload)
	}
	s.Stats.EagerSent++
	// The firmware keeps the frame snapshots until the peer's
	// cumulative ack covers them, retransmitting on timeout.
	tc.unacked = append(tc.unacked, u)
	ep.armEagerRtx(tc)
	// Eager sends complete at post time: the NIC has snapshot the data
	// and firmware-level retransmission guarantees delivery.
	r.done = true
	return r
}

// IRecv posts a receive into the library matching state.
func (ep *Endpoint) IRecv(p *sim.Proc, match, mask uint64, buf *hostmem.Buffer, off, n int) *Request {
	ep.core().RunOn(p, cpu.UserLib, sim.Duration(ep.S.H.P.OMXLibPickupCost))
	r := &Request{ep: ep, isRecv: true, match: match, mask: mask, buf: buf, off: off, n: n}
	for i, u := range ep.ux {
		if !matches(match, mask, u.match) {
			continue
		}
		ep.ux = append(ep.ux[:i], ep.ux[i+1:]...)
		switch u.kind {
		case uxEager:
			cnt := min(u.msgLen, n)
			if cnt > 0 {
				d := ep.S.H.Copy.Memcpy(buf, off, u.tmp, 0, cnt, ep.Core)
				ep.core().RunOn(p, cpu.UserLib, d)
			}
			r.Len, r.SenderAddr, r.MatchInfo, r.done = cnt, u.src, u.match, true
		case uxRndv:
			ep.startPull(p, r, u)
		}
		return r
	}
	// In-progress unexpected assemblies may be claimed by a new post.
	// Without this, a message whose first fragment arrived before the
	// post — possible whenever retransmission delays a fragment —
	// would complete into the unexpected queue and never be matched.
	// Selection is by lowest (source, sequence), never by map order,
	// so runs stay bit-reproducible.
	var claim *assembly
	var claimKey asmKey
	for k, a := range ep.asm {
		if a.dst == nil && matches(match, mask, a.match) && (claim == nil || claimKeyBefore(k, claimKey)) {
			claim, claimKey = a, k
		}
	}
	if claim != nil {
		claim.dst = r
		if claim.arrived > 0 && claim.tmp != nil {
			ep.claimArrived(p, r, claim.got, claim.msgLen, claim.tmp)
		}
		claim.tmp = nil
		return r
	}
	ep.posted = append(ep.posted, r)
	return r
}

// claimKeyBefore orders claim candidates deterministically (see
// proto.ClaimBefore).
func claimKeyBefore(a, b asmKey) bool {
	return proto.ClaimBefore(a.src, a.seq, b.src, b.seq)
}

// claimArrived copies the already-arrived fragments of a claimed
// assembly into the posted receive, fragment by fragment per
// proto.CopyPlan (arrivals need not be contiguous once retransmission
// or cross-NIC striping is involved; this library always copies
// per fragment, unlike Open-MX's merged-prefix fast path).
func (ep *Endpoint) claimArrived(p *sim.Proc, r *Request, got uint64, msgLen int, tmp *hostmem.Buffer) {
	limit := min(msgLen, r.n)
	for _, run := range proto.CopyPlan(got, 0, proto.MediumFragSize, limit, false) {
		d := ep.S.H.Copy.Memcpy(r.buf, r.off+run.Off, tmp, run.Off, run.N, ep.Core)
		ep.core().RunOn(p, cpu.UserLib, d)
	}
}

// Wait drives library progress until r completes.
func (ep *Endpoint) Wait(p *sim.Proc, r *Request) {
	for !r.done {
		if !ep.Progress(p) {
			p.WaitFor(ep.evSig, func() bool { return len(ep.evq) > 0 })
		}
	}
}

// Test reports whether r completed after a progress pass.
func (ep *Endpoint) Test(p *sim.Proc, r *Request) bool {
	ep.Progress(p)
	return r.done
}

// Progress drains pending events.
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
		u := &uxMsg{kind: uxRndv, src: ev.src, match: ev.match, seq: ev.seq, msgLen: ev.msgLen, handle: ev.handle}
		for i, r := range ep.posted {
			if matches(r.match, r.mask, ev.match) {
				ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
				ep.startPull(p, r, u)
				return
			}
		}
		ep.ux = append(ep.ux, u)
	case evRecvDone:
		d := ep.unpinCost(ev.req.buf, ev.req.n)
		if d > 0 {
			ep.core().RunOn(p, cpu.UserLib, d)
		}
		ev.req.done = true
	case evSendDone:
		d := ep.unpinCost(ev.req.buf, ev.req.n)
		if d > 0 {
			ep.core().RunOn(p, cpu.UserLib, d)
		}
		ev.req.done = true
	case evCollDone:
		// Barriers post no destination buffer, so there may be
		// nothing to unregister.
		if ev.req.buf != nil {
			if d := ep.unpinCost(ev.req.buf, ev.req.n); d > 0 {
				ep.core().RunOn(p, cpu.UserLib, d)
			}
		}
		ev.req.done = true
	case evShm:
		ep.handleShm(p, ev)
	}
}

// handleEagerFrag: the library's single copy from the NIC-deposited
// receive queue to the destination.
func (ep *Endpoint) handleEagerFrag(p *sim.Proc, ev *event) {
	key := asmKey{src: ev.src, seq: ev.seq}
	a := ep.asm[key]
	if a == nil {
		a = &assembly{match: ev.match, msgLen: ev.msgLen, fragCnt: ev.fragCnt}
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
		ep.asm[key] = a
	}
	bit := uint64(1) << ev.fragID
	if a.got&bit == 0 {
		a.got |= bit
		a.arrived++
		dstBuf, dstOff, limit := a.tmp, ev.offset, ev.msgLen
		if a.dst != nil {
			dstBuf, dstOff = a.dst.buf, a.dst.off+ev.offset
			limit = min(ev.msgLen, a.dst.n)
		}
		n := ev.dataLen
		if ev.offset+n > limit {
			n = limit - ev.offset
		}
		if n > 0 && dstBuf != nil {
			d := ep.S.H.Copy.Memcpy(dstBuf, dstOff, ep.ring.Buf, ep.ring.Off(ev.slot), n, ep.Core)
			ep.core().RunOn(p, cpu.UserLib, d)
		}
	}
	if ev.slot >= 0 {
		ep.ring.Put(ev.slot)
	}
	if a.arrived == a.fragCnt {
		delete(ep.asm, key)
		if a.dst != nil {
			a.dst.Len = min(a.msgLen, a.dst.n)
			a.dst.SenderAddr, a.dst.MatchInfo = ev.src, a.match
			a.dst.done = true
		} else {
			ep.ux = append(ep.ux, &uxMsg{kind: uxEager, src: ev.src, match: a.match, msgLen: a.msgLen, tmp: a.tmp})
		}
		// Transport-level cumulative ack: it completes interoperating
		// Open-MX senders and releases this firmware's own
		// retransmission snapshots on a native peer. The firmware
		// window advanced when the last fragment arrived, so its edge
		// covers ev.seq (and anything completed before it).
		ack := ev.seq
		if ch := ep.rx[ev.src]; ch != nil {
			ack = ch.win.Edge()
		}
		ep.S.transmit(ev.src, &proto.Ack{Src: ev.src, Dst: ep.Addr(), AckSeq: ack}, nil)
	}
}

// startPull: user-level pull command; the firmware then drives the
// whole transfer with zero host involvement.
func (ep *Endpoint) startPull(p *sim.Proc, r *Request, u *uxMsg) {
	s := ep.S
	n := min(u.msgLen, r.n)
	cost := sim.Duration(s.H.P.MXPostCost) + ep.pinCost(r.buf, n)
	ep.core().RunOn(p, cpu.UserLib, cost)
	s.nextHandle++
	lp := &mxPull{
		handle: s.nextHandle, ep: ep, req: r, src: u.src, senderHandle: u.handle,
		key: rndvKey{src: u.src, dst: ep.ID, seq: u.seq},
		buf: r.buf, off: r.off, n: n, frags: proto.FragsOf(n),
		blocks: make(map[int]*mxBlock),
	}
	r.MatchInfo, r.SenderAddr = u.match, u.src
	lp.startedAt = s.H.E.Now()
	s.pulls[lp.handle] = lp
	// Two pipelined pull blocks outstanding per NIC lane, entirely
	// firmware-driven: the single-NIC window is the classic two
	// blocks; an aggregated link widens proportionally so every lane
	// keeps a block's worth of fragments in flight. An adaptive
	// transfer instead starts at the AIMD controller's minimum and
	// grows as clean block round trips accumulate.
	want := 2 * s.lanes
	if s.Cfg.Adaptive {
		lp.aw = s.pullWindowFor(lp.src)
		want = lp.aw.Window()
	}
	for i := 0; i < want; i++ {
		s.pullNextBlock(lp)
	}
}
