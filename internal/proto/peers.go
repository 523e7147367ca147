package proto

import "omxsim/sim"

// Per-peer transport decisions shared by the Open-MX driver
// (internal/core) and the native MX firmware (internal/mxoe). The two
// stacks interoperate over one wire, so when to retransmit and how
// wide a pull window may grow must be decided by the same code on
// every peer; each stack owns one Peers value and asks it.

// MinRTO floors the RTT-derived retransmission timeout: even on a
// very fast link the timer must ride out the deferred-ack delay and
// self-induced queueing behind a full pull window.
const MinRTO = sim.Millisecond

// AIMD pull-window bounds: the paper's two pipelined blocks below,
// winPerLane blocks per NIC lane above.
const (
	winMin     = 2
	winPerLane = 4
)

// Schedule is a stack's configured retransmission schedule: the base
// timeout, the multiplier applied per consecutive unanswered attempt,
// and the cap on the backed-off timeout.
type Schedule struct {
	Base    sim.Duration
	Backoff float64
	Max     sim.Duration
}

// Peers is one stack's per-peer transport state: its retransmission
// schedule and, when the stack runs adaptive, a Jacobson/Karels RTT
// estimator and an AIMD pull window per remote endpoint. Non-adaptive
// stacks keep no per-peer state and always use the static schedule.
type Peers struct {
	sched Schedule
	// adaptiveRTO records whether timeouts derive from measured RTTs:
	// the stack is adaptive and no explicit timeout pins the base.
	adaptiveRTO bool
	maxWin      int
	rtt         map[Addr]*RTTEstimator // nil unless adaptive
	win         map[Addr]*AIMDWindow   // nil unless adaptive
}

// NewPeers returns the per-peer state of a stack with the given
// retransmission schedule and lane count. adaptive is the stack's
// Config.Adaptive; pinnedRTO reports whether its Config set
// RetransmitTimeout explicitly (decided before defaults are filled
// in), which keeps the static base even on an adaptive stack.
func NewPeers(adaptive, pinnedRTO bool, sched Schedule, lanes int) Peers {
	p := Peers{sched: sched, adaptiveRTO: adaptive && !pinnedRTO, maxWin: winPerLane * lanes}
	if adaptive {
		p.rtt = make(map[Addr]*RTTEstimator)
		p.win = make(map[Addr]*AIMDWindow)
	}
	return p
}

// RTO returns the retransmission timeout towards peer after the given
// number of consecutive unanswered attempts. Static stacks (and
// adaptive ones whose Config pins the timeout) back off from the
// configured base; adaptive stacks back off from the peer's estimated
// RTO, clamped between MinRTO and the static base, so an untuned
// channel never times out later than the static default and a
// measured one recovers at RTT scale.
func (p *Peers) RTO(peer Addr, attempts int) sim.Duration {
	base := p.sched.Base
	if p.adaptiveRTO {
		if e := p.rtt[peer]; e != nil {
			base = e.RTO(MinRTO, p.sched.Base)
		}
	}
	return Backoff(base, p.sched.Max, p.sched.Backoff, attempts)
}

// Observe feeds one clean (never-retransmitted) round trip to peer's
// estimator and returns the new SRTT for the caller's trace. ok is
// false, and nothing is recorded, on a non-adaptive stack or for a
// negative sample.
func (p *Peers) Observe(peer Addr, rtt sim.Duration) (srtt sim.Duration, ok bool) {
	if p.rtt == nil || rtt < 0 {
		return 0, false
	}
	e := p.rtt[peer]
	if e == nil {
		e = &RTTEstimator{}
		p.rtt[peer] = e
	}
	e.Observe(rtt)
	return e.SRTT(), true
}

// Window returns (creating on first use) the AIMD controller for
// pulls from peer, or nil on a non-adaptive stack. The controller is
// per peer, not per transfer: the window a transfer earned persists
// into the next one, so repeated messages converge instead of
// re-ramping from the minimum every time.
func (p *Peers) Window(peer Addr) *AIMDWindow {
	if p.win == nil {
		return nil
	}
	aw := p.win[peer]
	if aw == nil {
		aw = NewAIMDWindow(winMin, p.maxWin)
		p.win[peer] = aw
	}
	return aw
}

// RoundRobinLane stripes unit (an eager fragment or pull block index)
// of message seq across lanes round-robin. Retransmissions recompute
// the same lane, so a lossy lane is retried on itself and per-lane
// impairment stays attributable.
func RoundRobinLane(seq uint32, unit, lanes int) int {
	if lanes <= 1 {
		return 0
	}
	return (int(seq) + unit) % lanes
}
