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
	"omxsim/internal/mxlib"
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
	// Adaptive enables the firmware's self-tuning tier (proto.Peers):
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
	// rndv deduplicates retransmitted rendezvous requests and
	// re-acks finished ones.
	rndv       proto.RndvDedup
	nextHandle int

	// Firmware collective-group state (coll.go): registered groups by
	// (group ID, endpoint), plus frames that arrived before the local
	// CollJoin.
	collGroups  map[collKey]*CollGroup
	collPending map[collKey][]*wire.Frame

	// peers owns the retransmission schedule and, with Config.Adaptive,
	// the per-peer RTT estimators and AIMD pull windows — the same
	// internal/proto state machines the host stack runs, here driven
	// entirely in firmware context. There is no IRQ steering: the
	// firmware never interrupts the host, so there is nothing to steer.
	peers proto.Peers

	// Trace, when set, receives transport span and counter events
	// (pull blocks, collectives, retransmissions, SRTT samples) in the
	// host stack's TraceEvent format, for the Chrome trace exporter.
	Trace core.Tracer

	// reg is the per-stack registration cache (Config.RegCache); nil
	// when disabled.
	reg *hostmem.RegCache

	// snaps recycles eager-fragment snapshots: ISend takes one per
	// fragment and fwAck files it back once the peer's cumulative ack
	// covers its message, so a steady stream of same-size sends reuses
	// the same few backings.
	snaps hostmem.Spares

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
	pinnedRTO := cfg.RetransmitTimeout != 0
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
		rndv:      proto.NewRndvDedup(),

		collGroups:  make(map[collKey]*CollGroup),
		collPending: make(map[collKey][]*wire.Frame),

		peers: proto.NewPeers(cfg.Adaptive, pinnedRTO, proto.Schedule{
			Base: cfg.RetransmitTimeout, Backoff: cfg.RetransmitBackoff, Max: cfg.RetransmitMax,
		}, h.Lanes()),
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
// block) of message seq: the firmware always stripes round-robin.
func (s *Stack) laneOf(seq uint32, unit int) int { return proto.RoundRobinLane(seq, unit, s.lanes) }

// Endpoint is one MX endpoint: the shared MX library (matching,
// eager reassembly, progress) over the firmware's event queue, plus
// the firmware's per-peer reliability state.
type Endpoint struct {
	*mxlib.Lib[*event]

	S    *Stack
	ID   int
	Core int

	ring *hostmem.Ring // eager receive queue, one 4 kiB slot per fragment

	// Firmware reliability state, per peer.
	tx map[proto.Addr]*mxTxChan
	rx map[proto.Addr]*mxRxChan
}

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
	kind evKind
	mxlib.Frag
	handle int // rendezvous sender handle
	req    *mxlib.Request
	msg    *mxlib.Message // shared-memory message
}

type mxSend struct {
	handle int
	ep     *Endpoint
	req    *mxlib.Request
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
	req          *mxlib.Request
	src          proto.Addr
	senderHandle int
	key          proto.RndvKey
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
		ring: s.H.Mem.AllocRing(s.Cfg.RingSlots, proto.MediumFragSize),
		tx:   make(map[proto.Addr]*mxTxChan),
		rx:   make(map[proto.Addr]*mxRxChan),
	}
	// The MX library claims arrived fragments one copy each.
	ep.Lib = mxlib.New(s.H, coreID, false, ep.copyFrag, ep.handleEvent)
	s.endpoints[id] = ep
	return ep
}

// Addr returns the endpoint's address.
func (ep *Endpoint) Addr() proto.Addr { return proto.Addr{Host: ep.S.H.Name, EP: ep.ID} }

func (ep *Endpoint) core() *cpu.Core { return ep.S.H.Sys.Core(ep.Core) }

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
// immediately; large ones pin and send a rendezvous request. Receives, Wait, Test
// and Progress are the shared library's (mxlib.Lib).
func (ep *Endpoint) ISend(p *sim.Proc, dst proto.Addr, match uint64, buf *hostmem.Buffer, off, n int) *mxlib.Request {
	s := ep.S
	r := mxlib.NewRequest(match, buf, off, n)
	if dst.Host == s.H.Name {
		return ep.shmSend(p, dst, r)
	}
	tc := ep.mxTx(dst)
	seq := tc.Next()
	if n > 32*1024 {
		// MX registration pays more per page than Open-MX: the NIC's
		// translation table is updated too.
		cost := sim.Duration(s.H.P.MXPostCost) + s.reg.PinCost(buf, n, s.H.P.MXPinPerPage, s.H.P.UnpinPerPage)
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
	u := &mxUnacked{TxSend: proto.TxSend{Seq: seq, SentAt: s.H.E.Now()}}
	for f := 0; f < frags; f++ {
		fo := f * proto.MediumFragSize
		fl := min(proto.MediumFragSize, n-fo)
		if n <= proto.SmallMax {
			fl = n
		}
		var payload []byte
		if fl > 0 {
			if payload = s.snaps.Get(fl); payload == nil {
				payload = make([]byte, fl)
			}
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
	// cumulative ack covers them, retransmitting on timeout; fwAck
	// then recycles them.
	tc.Unacked = append(tc.Unacked, u)
	ep.armEagerRtx(tc)
	// Eager sends complete at post time: the NIC has snapshot the data
	// and firmware-level retransmission guarantees delivery.
	r.Finish()
	return r
}

func (ep *Endpoint) handleEvent(p *sim.Proc, ev *event) {
	switch ev.kind {
	case evEagerFrag:
		ep.handleEagerFrag(p, ev)
	case evRndv:
		ep.Arrive(p, &mxlib.Message{
			Src: ev.Src, Match: ev.Match, Len: ev.MsgLen,
			Start: func(p *sim.Proc, r *mxlib.Request) { ep.startPull(p, r, ev) },
		})
	case evRecvDone, evSendDone, evCollDone:
		// Barriers post no destination buffer, so there may be
		// nothing to unregister (deferred with the registration cache).
		if ev.req.Buf != nil {
			if d := ep.S.reg.UnpinCost(ev.req.Buf, ev.req.N, ep.S.H.P.UnpinPerPage); d > 0 {
				ep.core().RunOn(p, cpu.UserLib, d)
			}
		}
		ev.req.Finish()
	case evShm:
		ep.Arrive(p, ev.msg)
	}
}

// handleEagerFrag: the shared library's single copy from the
// NIC-deposited receive queue to the destination, then the queue
// slot's release and, once the message completed, its ack.
func (ep *Endpoint) handleEagerFrag(p *sim.Proc, ev *event) {
	_, complete := ep.EagerFrag(p, &ev.Frag)
	if ev.Slot >= 0 {
		ep.ring.Put(ev.Slot)
	}
	if !complete {
		return
	}
	// Transport-level cumulative ack: it completes interoperating
	// Open-MX senders and releases this firmware's own
	// retransmission snapshots on a native peer. The firmware
	// window advanced when the last fragment arrived, so its edge
	// covers ev.Seq (and anything completed before it).
	ack := ev.Seq
	if ch := ep.rx[ev.Src]; ch != nil {
		ack = ch.win.Edge()
	}
	ep.S.transmit(ev.Src, &proto.Ack{Src: ev.Src, Dst: ep.Addr(), AckSeq: ack}, nil)
}

// copyFrag copies an eager fragment's payload out of the receive
// queue.
func (ep *Endpoint) copyFrag(f *mxlib.Frag, dst *hostmem.Buffer, off, n int) sim.Duration {
	return ep.S.H.Copy.Memcpy(dst, off, ep.ring.Buf, ep.ring.Off(f.Slot), n, ep.Core)
}

// startPull: user-level pull command for rendezvous request ev,
// matched by r; the firmware then drives the whole transfer with zero
// host involvement.
func (ep *Endpoint) startPull(p *sim.Proc, r *mxlib.Request, ev *event) {
	s := ep.S
	n := r.Len()
	cost := sim.Duration(s.H.P.MXPostCost) + s.reg.PinCost(r.Buf, n, s.H.P.MXPinPerPage, s.H.P.UnpinPerPage)
	ep.core().RunOn(p, cpu.UserLib, cost)
	s.nextHandle++
	lp := &mxPull{
		handle: s.nextHandle, ep: ep, req: r, src: ev.Src, senderHandle: ev.handle,
		key: proto.RndvKey{Src: ev.Src, Dst: ep.ID, Seq: ev.Seq},
		buf: r.Buf, off: r.Off, n: n, frags: proto.FragsOf(n),
		blocks: make(map[int]*mxBlock),
	}
	lp.startedAt = s.H.E.Now()
	s.pulls[lp.handle] = lp
	// Two pipelined pull blocks outstanding per NIC lane, entirely
	// firmware-driven: the single-NIC window is the classic two
	// blocks; an aggregated link widens proportionally so every lane
	// keeps a block's worth of fragments in flight. An adaptive
	// transfer instead starts at the AIMD controller's minimum and
	// grows as clean block round trips accumulate.
	want := 2 * s.lanes
	if lp.aw = s.peers.Window(lp.src); lp.aw != nil {
		want = lp.aw.Window()
	}
	for i := 0; i < want; i++ {
		s.pullNextBlock(lp)
	}
}
