// Package core implements the Open-MX stack — the paper's subject —
// split, like the real implementation, into a user-space library
// (matching, eager reassembly and progress, which it shares with the
// native stack as internal/mxlib; rendezvous decisions, registration
// cache) and a kernel driver (send path, receive callback running in
// the NIC's bottom half, pull protocol for large messages, one-copy
// local communication, retransmission).
//
// The paper's contribution lives in the receive paths:
//
//   - large-message fragments are copied from skbuffs into the
//     (already pinned) destination either by memcpy on the bottom-half
//     core or — with Config.IOAT — by submitting asynchronous I/OAT
//     copies and releasing the CPU immediately; the last fragment
//     waits for the DMA engine, then reports a single completion event
//     (Section III-A, Figures 5/6);
//   - a cleanup routine bounds the pool of skbuffs queued behind
//     pending copies, invoked whenever a new pull block is requested
//     and on retransmission timeouts (Section III-B);
//   - small and medium fragments may optionally be offloaded
//     synchronously (Config.IOATSyncMedium; the paper measured this to
//     be a loss, which the model reproduces);
//   - local (intra-node) messages use a one-copy transfer inside a
//     system call, performed by memcpy or, beyond a threshold, by a
//     blocking I/OAT copy (Config.IOATShm, Section III-C, Figure 10).
package core

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/ioat"
	"omxsim/internal/mxlib"
	"omxsim/internal/nic"
	"omxsim/internal/proto"
	"omxsim/internal/wire"
	"omxsim/sim"
)

// Config selects the stack's optimizations and thresholds. The zero
// value is the plain memcpy-based Open-MX; Defaults() fills in the
// paper's thresholds.
type Config struct {
	// IOAT offloads large-message receive copies asynchronously.
	IOAT bool
	// IOATSyncMedium also offloads medium-fragment copies,
	// synchronously (the paper's Section IV-C experiment — a
	// measured regression, reproduced here).
	IOATSyncMedium bool
	// IOATShm offloads the one-copy local communication beyond
	// ShmIOATThreshold, busy-polling completion.
	IOATShm bool
	// RegCache enables the registration cache: pin once per buffer,
	// defer unpinning (Figure 11's "regcache" curves). The cache is
	// per-stack (all endpoints share it, like the per-driver cache of
	// the real implementation) and unbounded unless RegCacheEntries
	// caps it.
	RegCache bool
	// RegCacheEntries bounds the registration cache to this many
	// resident regions, evicting (and deregistering) least-recently
	// used ones past the bound. 0 = unbounded, the classic Open-MX
	// behaviour.
	RegCacheEntries int
	// DCATargetCore, on a platform with HasDCA, steers the NIC's
	// Direct Cache Access deposits at this core's LLC. 0 (the default)
	// follows the interrupt core, the chipset's own steering rule; set
	// it to the consumer's core to model application-aware steering,
	// or to a core on the wrong socket to reproduce the misdirected-DCA
	// cliff. Ignored without HasDCA.
	DCATargetCore int
	// AutoTune replaces the hand-set thresholds with the adaptive
	// autotuner: when the stack attaches (just before its first
	// endpoint opens), ProbeThresholds probes the platform's memcpy
	// and I/OAT cost curves and fills LargeThreshold, IOATMinMsg,
	// IOATMinFrag and ShmIOATThreshold with the measured crossover
	// points. Thresholds set explicitly in the Config win over the
	// probe.
	AutoTune bool
	// SkipBHCopy is the Figure 3 prediction knob: data still moves
	// (so integrity holds) but the bottom-half copy costs nothing.
	SkipBHCopy bool
	// Adaptive turns on the self-tuning transport tier: per-peer
	// SRTT/RTTVAR estimators (sampled from eager acks and pull-block
	// round trips) derive the retransmission timeout in place of the
	// fixed RetransmitTimeout default, an AIMD controller sizes each
	// transfer's pull window within [2, 4 x lanes] from measured block
	// round trips, and on multi-NIC hosts bottom-half work is steered
	// off saturated cores at quantized epochs. Explicit settings still
	// win: a nonzero RetransmitTimeout pins the timeout and a nonzero
	// PullBlocks pins the window even with Adaptive set. Off (the
	// default), the stack is bit-identical to the static transport.
	Adaptive bool

	// LargeThreshold: messages strictly larger use the rendezvous
	// pull protocol (paper: 32 kB). Capped at 64 eager fragments
	// (256 kB): the driver's per-message dedup/assembly bitmaps are
	// 64 bits wide, so fillDefaults clamps larger values.
	LargeThreshold int
	// IOATMinMsg / IOATMinFrag: offload copies only for messages ≥
	// IOATMinMsg whose fragments are ≥ IOATMinFrag ("we have
	// empirically chosen to offload memory copies of fragments larger
	// than 1 kB for messages larger than 64 kB").
	IOATMinMsg  int
	IOATMinFrag int
	// ShmIOATThreshold: local messages of at least this size use the
	// I/OAT engine when IOATShm is set. Figure 10 was measured with
	// the large-message threshold (32 kB); the shipped default became
	// 1 MB — both are expressible.
	ShmIOATThreshold int
	// PullBlockFrags fragments per pull block, PullBlocks blocks
	// outstanding ("two pipelined blocks of 8 fragments").
	PullBlockFrags int
	PullBlocks     int
	// RingSlots is the per-endpoint receive ring capacity in
	// 4 kiB slots.
	RingSlots int
	// RetransmitTimeout for pull blocks, rendezvous requests and
	// unacked eager messages.
	RetransmitTimeout sim.Duration
	// RetransmitBackoff multiplies the timeout after every
	// consecutive unanswered retransmission (exponential backoff;
	// 1 disables). RetransmitMax caps the backed-off timeout.
	// Attempt counters reset on any acknowledged progress.
	RetransmitBackoff float64
	RetransmitMax     sim.Duration
	// DeferredAckDelay before an explicit ack frame is emitted when no
	// reverse traffic piggybacks it.
	DeferredAckDelay sim.Duration

	// ---- Section V/VI "future work" extensions ----

	// HybridWarmupBytes, when nonzero, copies the first bytes of each
	// offloaded large message with memcpy (warming the consumer's
	// cache) before switching to I/OAT — the Section V/VI idea of
	// using memcpy "for the beginning of larger messages".
	HybridWarmupBytes int
	// PredictiveSleep makes synchronous I/OAT waits in process
	// context (the shared-memory path) sleep for a predicted
	// completion time instead of busy-polling (Section VI).
	PredictiveSleep bool
	// StripeChannels stripes one local I/OAT copy across this many
	// DMA channels (1 = the paper's one-channel-per-message policy;
	// using all four buys ≈40 %, per reference [22]).
	StripeChannels int

	// ---- Multi-NIC link aggregation ----

	// StripePolicy selects how traffic spreads across a multi-NIC
	// host's lanes (StripeRoundRobin, StripeHash, StripeSingle). It is
	// ignored on single-NIC hosts, where every frame takes lane 0.
	StripePolicy string
}

// Stripe policies for multi-NIC hosts. Round-robin (the default)
// spreads the units of one message — eager fragments, pull blocks —
// across lanes for maximum aggregate bandwidth; hash pins each
// message to one seeded lane (classic L3/L4 link-aggregation
// hashing: per-flow ordering, no per-message striping win); single
// forces lane 0 (aggregation disabled, the control baseline).
const (
	StripeRoundRobin = "roundrobin"
	StripeHash       = "hash"
	StripeSingle     = "single"
)

// Defaults returns the paper's configuration (memcpy everywhere; turn
// on IOAT/RegCache/etc. per experiment).
func Defaults() Config {
	return Config{
		LargeThreshold:    32 * 1024,
		IOATMinMsg:        64 * 1024,
		IOATMinFrag:       1024,
		ShmIOATThreshold:  32 * 1024,
		PullBlockFrags:    8,
		PullBlocks:        2,
		RingSlots:         512,
		RetransmitTimeout: 50 * sim.Millisecond,
		RetransmitBackoff: 2,
		RetransmitMax:     800 * sim.Millisecond,
		DeferredAckDelay:  100 * sim.Microsecond,
	}
}

// maxEagerBytes is the largest message the eager path can carry: the
// per-message fragment dedup and assembly bitmaps are 64 bits wide.
const maxEagerBytes = 64 * proto.MediumFragSize

func (c *Config) fillDefaults() {
	d := Defaults()
	if c.LargeThreshold == 0 {
		c.LargeThreshold = d.LargeThreshold
	}
	if c.LargeThreshold > maxEagerBytes {
		c.LargeThreshold = maxEagerBytes
	}
	if c.IOATMinMsg == 0 {
		c.IOATMinMsg = d.IOATMinMsg
	}
	if c.IOATMinFrag == 0 {
		c.IOATMinFrag = d.IOATMinFrag
	}
	if c.ShmIOATThreshold == 0 {
		c.ShmIOATThreshold = d.ShmIOATThreshold
	}
	if c.PullBlockFrags == 0 {
		c.PullBlockFrags = d.PullBlockFrags
	}
	if c.PullBlocks == 0 {
		c.PullBlocks = d.PullBlocks
	}
	if c.RingSlots == 0 {
		c.RingSlots = d.RingSlots
	}
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = d.RetransmitTimeout
	}
	if c.RetransmitBackoff == 0 {
		c.RetransmitBackoff = d.RetransmitBackoff
	}
	if c.RetransmitMax == 0 {
		// Scale the cap with a custom base timeout: 16x the base,
		// i.e. four doublings at the default backoff of 2.
		c.RetransmitMax = 16 * c.RetransmitTimeout
	}
	if c.DeferredAckDelay == 0 {
		c.DeferredAckDelay = d.DeferredAckDelay
	}
	switch c.StripePolicy {
	case "", StripeRoundRobin, StripeHash, StripeSingle:
	default:
		panic(fmt.Sprintf("openmx: unknown stripe policy %q", c.StripePolicy))
	}
}

// Stats counts protocol activity for tests and diagnostics.
type Stats struct {
	EagerSent        int64
	RndvSent         int64
	PullsSent        int64
	LargeFragsSent   int64
	AcksSent         int64
	EagerRetransmits int64
	PullRetransmits  int64
	RndvRetransmits  int64
	RingDrops        int64
	DupFrags         int64
	IOATSubmits      int64
	CleanupFrees     int64
	LocalMsgs        int64
	LocalIOATCopies  int64
	// CollDropped counts NIC-collective frames (CollData/CollAck)
	// dropped because this stack runs collectives on the host — only a
	// firmware-mode stack (internal/mxoe) terminates them.
	CollDropped int64
	// NICTxFrames counts frames this stack transmitted per NIC lane —
	// the striping balance (index = lane; single-NIC stacks have one
	// entry). Receive-side per-NIC counters live in cluster.NetStats.
	NICTxFrames []int64
}

// TraceEvent is one span or counter sample of the stack's trace
// stream, emitted through Stack.Trace. The receive-path kinds
// ("process", "memcpy", "submit", "dma-copy", "wait", "notify") are
// the paper's Figures 5/6 timeline; the protocol kinds ("eager",
// "rndv", "pull", "retransmit") span whole exchanges with their lane,
// sequence and window annotations; Kind "counter" carries a named
// scalar sample (cwnd, srtt, queue-depth) for timeline export.
type TraceEvent struct {
	// Kind: "process", "memcpy", "submit", "dma-copy", "wait",
	// "notify", "eager", "rndv", "pull", "collective", "retransmit",
	// "counter" (counter Names: "cwnd", "srtt", "pull-queue").
	Kind  string
	Frag  int // fragment id for receive-path spans, -1 otherwise
	Start sim.Time
	End   sim.Time

	// Protocol-span annotations (zero for receive-path spans).
	Lane   int    // transmit lane of the spanned unit
	Seq    uint32 // channel or rendezvous sequence
	Block  int    // pull block index ("pull"/"retransmit" on a block)
	Window int    // pull window in blocks when the span closed

	// Counter samples (Kind "counter") only.
	Name  string
	Value float64
}

// Tracer receives a stack's trace stream; both stacks' Stack.Trace
// have this type, and nil (the default) disables tracing.
type Tracer func(TraceEvent)

// Counter publishes one named scalar sample (cwnd, srtt, pull-queue)
// taken at now.
func (t Tracer) Counter(now sim.Time, name string, v float64) {
	if t != nil {
		t(TraceEvent{Kind: "counter", Frag: -1, Start: now, End: now, Name: name, Value: v})
	}
}

// Retransmit publishes one retransmission at now as a zero-length
// span: block is the pull block (-1 for an eager message or a
// rendezvous request), lane the lane it is resent on.
func (t Tracer) Retransmit(now sim.Time, seq uint32, block, lane int) {
	if t != nil {
		t(TraceEvent{Kind: "retransmit", Frag: -1, Start: now, End: now, Seq: seq, Block: block, Lane: lane})
	}
}

// Stack is the Open-MX driver+library instance of one host.
type Stack struct {
	H   *host.Host
	Cfg Config

	// lanes is the host's NIC count; striping decisions are modulo it.
	lanes int

	// Trace, when non-nil, receives receive-path spans (see
	// TraceEvent). Used by the timeline renderer; nil in normal runs.
	Trace Tracer

	endpoints map[int]*Endpoint

	// Driver-side large message state.
	nextHandle int
	sends      map[int]*largeSend // by sender handle
	pulls      map[int]*largePull // by receiver handle

	// rndv remembers handled rendezvous so retransmitted requests
	// don't restart transfers and finished ones can be re-acked.
	rndv proto.RndvDedup

	// peers owns the retransmission schedule and, with Config.Adaptive,
	// the per-peer RTT estimators and AIMD pull windows (internal/proto).
	// adaptiveWin records whether the pull window is derived online (an
	// explicit PullBlocks in the Config pins the static value even with
	// Adaptive set).
	peers       proto.Peers
	adaptiveWin bool
	// IRQ/bottom-half steering epochs (multi-NIC adaptive hosts).
	steerEvery  sim.Duration // 0 = steering disabled
	steerNext   sim.Time     // next quantized decision boundary
	steerLastAt sim.Time     // time of the previous ledger sample
	steerPrev   [][cpu.NumCategories]sim.Duration

	// reg is the per-stack registration cache (Config.RegCache); nil
	// when the cache is disabled and every post pins afresh.
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

// Attach builds an Open-MX stack on h and registers its receive
// callback with every NIC (generic Ethernet mode). With Config.AutoTune
// the startup threshold probe runs here, against h's platform.
//
// On a multi-NIC host the pull window widens proportionally: an
// unset PullBlocks becomes the paper's two pipelined blocks times the
// NIC count, so every lane can keep a block in flight (the fixed
// 2-block window only ever occupies two lanes at once — set
// PullBlocks explicitly to measure that plateau). An explicit
// PullBlocks always wins.
func Attach(h *host.Host, cfg Config) *Stack {
	// Adaptive derivations apply only where no explicit value pins the
	// static behaviour — decided before any default is filled in.
	pinnedRTO := cfg.RetransmitTimeout != 0
	adaptiveWin := cfg.Adaptive && cfg.PullBlocks == 0
	if cfg.PullBlocks == 0 && h.Lanes() > 1 {
		cfg.PullBlocks = Defaults().PullBlocks * h.Lanes()
	}
	if cfg.AutoTune && (cfg.LargeThreshold == 0 || cfg.IOATMinMsg == 0 ||
		cfg.IOATMinFrag == 0 || cfg.ShmIOATThreshold == 0) {
		th := ProbeThresholds(h.P)
		if cfg.LargeThreshold == 0 {
			cfg.LargeThreshold = th.LargeThreshold
		}
		if cfg.IOATMinMsg == 0 {
			cfg.IOATMinMsg = th.IOATMinMsg
		}
		if cfg.IOATMinFrag == 0 {
			cfg.IOATMinFrag = th.IOATMinFrag
		}
		if cfg.ShmIOATThreshold == 0 {
			cfg.ShmIOATThreshold = th.ShmIOATThreshold
		}
	}
	cfg.fillDefaults()
	s := &Stack{
		H:         h,
		Cfg:       cfg,
		lanes:     h.Lanes(),
		endpoints: make(map[int]*Endpoint),
		sends:     make(map[int]*largeSend),
		pulls:     make(map[int]*largePull),
		rndv:      proto.NewRndvDedup(),
		peers: proto.NewPeers(cfg.Adaptive, pinnedRTO, proto.Schedule{
			Base: cfg.RetransmitTimeout, Backoff: cfg.RetransmitBackoff, Max: cfg.RetransmitMax,
		}, h.Lanes()),
		adaptiveWin: adaptiveWin,
	}
	if cfg.Adaptive && s.lanes > 1 {
		s.steerEvery = steerEpoch
	}
	if cfg.RegCache {
		s.reg = hostmem.NewRegCache(cfg.RegCacheEntries)
	}
	s.Stats.NICTxFrames = make([]int64, s.lanes)
	for i, n := range h.NICs {
		lane := i
		n.SetRxHandler(func(p *sim.Proc, core *cpu.Core, skb *nic.Skb) {
			s.rxCallback(lane, p, core, skb)
		})
		if cfg.DCATargetCore > 0 {
			n.DCATarget = cfg.DCATargetCore
		}
	}
	return s
}

// addr returns the address of a local endpoint.
func (s *Stack) addr(ep int) proto.Addr { return proto.Addr{Host: s.H.Name, EP: ep} }

// laneOf picks the transmit lane for one unit of a message under the
// configured stripe policy. seq identifies the message (the channel
// or rendezvous sequence), unit the stripeable piece within it — the
// eager fragment index or the pull block index. Retransmissions
// recompute the same lane, so a lossy lane is retried on itself and
// per-lane impairment stays attributable.
func (s *Stack) laneOf(seq uint32, unit int) int {
	if s.lanes <= 1 {
		return 0
	}
	switch s.Cfg.StripePolicy {
	case StripeHash:
		// Per-message lane: a seeded multiplicative hash of the
		// message identity, like a switch's L3/L4 flow hash.
		return int((uint64(seq) * 0x9E3779B97F4A7C15 >> 33) % uint64(s.lanes))
	case StripeSingle:
		return 0
	default:
		return proto.RoundRobinLane(seq, unit, s.lanes)
	}
}

// transmit sends a protocol frame on lane 0 (control traffic: acks,
// rendezvous completion). payload may be nil for control frames; wire
// accounting always includes the Open-MX header.
func (s *Stack) transmit(dst proto.Addr, msg any, payload []byte) {
	s.transmitOn(0, dst, msg, payload)
}

// transmitOn sends a protocol frame on the given NIC lane, addressed
// to the peer's same-numbered lane (striping peers use symmetric lane
// numbering; see wire.LaneAddr).
func (s *Stack) transmitOn(lane int, dst proto.Addr, msg any, payload []byte) {
	f := &wire.Frame{
		Data:    payload,
		WireLen: len(payload) + s.H.P.OMXHeaderBytes,
		Msg:     msg,
		DstAddr: wire.LaneAddr(dst.Host, lane),
	}
	s.Stats.NICTxFrames[lane]++
	s.H.NICs[lane].Transmit(f)
}

// largeSend is the sender side of a rendezvous transfer.
type largeSend struct {
	handle int
	ep     *Endpoint
	req    *mxlib.Request
	dst    proto.Addr
	buf    *hostmem.Buffer
	off, n int
	seq    uint32
	// sentAt is when the rendezvous request first went out (the
	// request -> first-pull round trip is an RTT sample; Karn's rule
	// skips it once the request was retransmitted).
	sentAt sim.Time
	// rtx re-sends the rendezvous request if no pull ever arrives;
	// attempts drives its exponential backoff.
	rtx      sim.Timer
	attempts int
	pulled   bool
	// sampled flags that the request->first-pull RTT was already
	// taken. pulled cannot double as this: the rndv watchdog resets
	// it to probe for progress, and a later pull (e.g. a block
	// re-request) would then be sampled against the original sentAt.
	sampled  bool
	finished bool
}

// largePull is the receiver side of a rendezvous transfer: the paper's
// Section III state — outstanding pull blocks, the I/OAT channel
// assigned to the message, and the pool of skbuffs pending copy that
// the cleanup routine bounds.
type largePull struct {
	handle       int
	ep           *Endpoint
	req          *mxlib.Request
	src          proto.Addr
	senderHandle int
	key          proto.RndvKey
	buf          *hostmem.Buffer
	off, n       int

	frags     int
	nextBlock int
	numBlocks int
	blocks    map[int]*pullBlock
	received  int
	startedAt sim.Time // pull start, for the whole-rendezvous trace span

	// aw is the transfer's AIMD pull-window controller (adaptive
	// stacks without an explicit PullBlocks; nil otherwise). lastWin
	// tracks the last cwnd counter sample emitted to the trace.
	aw      *proto.AIMDWindow
	lastWin int

	useIOAT bool
	// chs holds one DMA channel per NIC lane: fragments arriving on
	// lane i submit to chs[i], so a striped message drives several
	// engine channels concurrently (single-NIC messages keep the
	// paper's one-channel-per-message policy). lastSeq[i] is the last
	// descriptor sequence submitted on lane i's channel.
	chs      []*ioat.Channel
	lastSeq  []uint64
	pending  []pendingCopy // skbuffs waiting for their copies to retire
	pinnedBy bool          // we pinned (must unpin unless regcache)
	done     bool
}

type pendingCopy struct {
	skb skbRef
	ch  *ioat.Channel // channel the copies were submitted on
	seq uint64        // I/OAT sequence that must retire before freeing
}

// skbRef lets tests substitute fakes; concretely a *nic.Skb.
type skbRef interface{ Free() }

type pullBlock struct {
	idx       int
	firstFrag int
	// asm is the block's hole-aware fragment bitmap: with the block's
	// fragments racing back over several NICs, arrival order within a
	// block is arbitrary.
	asm      proto.Reassembly
	timer    sim.Timer
	attempts int // consecutive timer expiries without progress
	// sentAt is the first request's transmit time (the block's round
	// trip is an RTT and AIMD sample); rtxed marks a retransmitted
	// block, whose round trip is never sampled (Karn's rule).
	sentAt sim.Time
	rtxed  bool
}

// pageChunks splits a destination range [start, start+n) into
// page-aligned chunk lengths — the unit of I/OAT descriptors, since
// the engine manipulates DMA (physical page) addresses. This is why
// chunk size matters so much in Figure 7.
func pageChunks(start, n, pageSize int) []int {
	if n <= 0 {
		return nil
	}
	var out []int
	first := pageSize - start%pageSize
	if first > n {
		first = n
	}
	out = append(out, first)
	n -= first
	for n > 0 {
		c := pageSize
		if c > n {
			c = n
		}
		out = append(out, c)
		n -= c
	}
	return out
}

func (s *Stack) String() string {
	return fmt.Sprintf("openmx(%s, ioat=%v)", s.H.Name, s.Cfg.IOAT)
}
