package proto

import "omxsim/sim"

// Reliability-window arithmetic shared by the Open-MX driver
// (internal/core) and the native MX firmware (internal/mxoe). The
// two stacks interoperate over one wire, so sequence comparison,
// wraparound, the reserved "no ack" sentinel 0, the retransmission
// backoff schedule, cumulative acks with their Karn-rule RTT
// samples, and the rendezvous dedup window must behave identically
// on every peer — there is exactly one implementation of each.

// SeqAfter reports a > b in 32-bit serial arithmetic (RFC 1982
// style), so comparisons stay correct across sequence wraparound.
func SeqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// NextSeq advances a sender's per-channel sequence counter in place
// and returns the issued value, skipping 0 — the wire's "no ack yet"
// sentinel — when the counter wraps.
func NextSeq(s *uint32) uint32 {
	*s++
	if *s == 0 {
		*s = 1
	}
	return *s
}

// Window is a receive-side cumulative completion window: the edge
// (every sequence serially at or before it is fully received) plus
// out-of-order completions ahead of it. The zero value is not usable;
// call NewWindow.
type Window struct {
	edge      uint32
	completed map[uint32]bool
}

// NewWindow returns an empty window whose edge sits just before the
// first sequence NextSeq will issue from a zero counter.
func NewWindow() Window { return NewWindowAt(0) }

// NewWindowAt returns a window with the given initial edge (tests
// start near the wraparound; channels start at 0).
func NewWindowAt(edge uint32) Window {
	return Window{edge: edge, completed: make(map[uint32]bool)}
}

// Edge reports the cumulative completion edge — the value a receiver
// acks.
func (w *Window) Edge() uint32 { return w.edge }

// IsDup reports whether seq was already fully received: covered by
// the cumulative edge or individually recorded ahead of it.
// Retransmissions of such sequences carry no new data and must only
// refresh the ack.
func (w *Window) IsDup(seq uint32) bool {
	return !SeqAfter(seq, w.edge) || w.completed[seq]
}

// MarkComplete records seq as fully received and advances the edge
// over any contiguous run it completes, skipping the sentinel 0 on
// wraparound (mirroring NextSeq).
func (w *Window) MarkComplete(seq uint32) {
	w.completed[seq] = true
	for {
		next := w.edge + 1
		if next == 0 {
			next = 1
		}
		if !w.completed[next] {
			return
		}
		w.edge = next
		delete(w.completed, next)
	}
}

// Pending reports completions recorded ahead of the edge (holes keep
// it nonzero; a drained channel returns 0).
func (w *Window) Pending() int { return len(w.completed) }

// Backoff returns the retransmission timeout after the given number
// of consecutive unanswered attempts: base scaled by mult per
// attempt, capped at max. Attempt counters reset on any acknowledged
// progress, so a transient outage never leaves a channel
// permanently slow.
func Backoff(base, max sim.Duration, mult float64, attempts int) sim.Duration {
	d := base
	for i := 0; i < attempts; i++ {
		d = sim.Duration(float64(d) * mult)
		if d >= max {
			return max
		}
	}
	if d > max {
		d = max
	}
	return d
}

// ClaimBefore orders in-progress assembly claim candidates
// deterministically — by source address, then sequence in serial
// order — so which partial message a wildcard receive claims never
// depends on Go map iteration order.
func ClaimBefore(aSrc Addr, aSeq uint32, bSrc Addr, bSeq uint32) bool {
	if aSrc.Host != bSrc.Host {
		return aSrc.Host < bSrc.Host
	}
	if aSrc.EP != bSrc.EP {
		return aSrc.EP < bSrc.EP
	}
	return SeqAfter(bSeq, aSeq)
}

// TxSend is the bookkeeping a TxChan keeps for each unacked send;
// each stack embeds it in its own send record.
type TxSend struct {
	Seq uint32
	// SentAt is the first transmission time (the send -> cumulative-ack
	// round trip is an RTT sample); Rtxed marks a retransmitted send,
	// never sampled (Karn's rule).
	SentAt sim.Time
	Rtxed  bool
}

func (t *TxSend) txSend() *TxSend { return t }

// Tracked is satisfied by any send record that embeds TxSend.
type Tracked interface{ txSend() *TxSend }

// TxChan is a sender's reliability state towards one remote endpoint:
// the sequence counter, the cumulative-ack edge, the unacked sends in
// issue order, and the retransmission timer with its backoff attempt
// count.
type TxChan[T Tracked] struct {
	Dst      Addr
	Unacked  []T
	nextSeq  uint32
	acked    uint32
	rtx      sim.Timer
	attempts int
}

// Next issues the channel's next message sequence (skipping the
// "no ack" sentinel 0 on wraparound; see NextSeq).
func (c *TxChan[T]) Next() uint32 { return NextSeq(&c.nextSeq) }

// Ack applies a cumulative ack that arrived at now. It returns the
// sends the ack completes, oldest first, and the Karn-rule RTT
// sample: now minus the first transmission of the newest completed
// send that was never retransmitted, or -1 when there is none. Stale
// and duplicate acks (0, or not serially after the current edge)
// complete nothing; an ack that does advance the edge also resets
// the retransmission backoff — the peer is alive. Once nothing is
// unacked the retransmission timer stops.
func (c *TxChan[T]) Ack(ackSeq uint32, now sim.Time) (done []T, sample sim.Duration) {
	sample = -1
	if ackSeq != 0 && SeqAfter(ackSeq, c.acked) {
		c.acked = ackSeq
		c.attempts = 0
		var keep []T
		for _, u := range c.Unacked {
			t := u.txSend()
			if SeqAfter(t.Seq, ackSeq) {
				keep = append(keep, u)
				continue
			}
			done = append(done, u)
			if !t.Rtxed {
				sample = now - t.SentAt
			}
		}
		c.Unacked = keep
	}
	if len(c.Unacked) == 0 {
		c.rtx.Stop()
		c.rtx = sim.Timer{}
	}
	return done, sample
}

// Arm starts the retransmission timer unless one is pending or
// nothing is unacked, with peers' timeout towards Dst at the current
// attempt count. On expiry, if sends are still unacked, it counts the
// attempt, marks every unacked send retransmitted (so it is never
// sampled), hands them to resend — the receivers deduplicate — and
// re-arms.
func (c *TxChan[T]) Arm(e *sim.Engine, peers *Peers, resend func(unacked []T)) {
	if c.rtx.Pending() || len(c.Unacked) == 0 {
		return
	}
	c.rtx = e.Schedule(peers.RTO(c.Dst, c.attempts), func() {
		c.rtx = sim.Timer{}
		if len(c.Unacked) == 0 {
			return
		}
		c.attempts++
		for _, u := range c.Unacked {
			u.txSend().Rtxed = true
		}
		resend(c.Unacked)
		c.Arm(e, peers, resend)
	})
}

// RndvDedupWindow bounds remembered completed rendezvous per stack
// (for re-acking lost final acks). A sender still retransmitting a
// request this many transfers later has long hit its backoff cap;
// real stacks bound this window too.
const RndvDedupWindow = 4096

// RndvKey identifies a rendezvous for duplicate suppression: the
// requesting peer, the local endpoint and the request's sequence.
type RndvKey struct {
	Src Addr
	Dst int
	Seq uint32
}

// RndvDedup remembers handled rendezvous so retransmitted requests do
// not restart transfers, and finished ones can be re-acked with the
// sender's handle. Completed entries live in a bounded FIFO: the
// oldest is forgotten past RndvDedupWindow, so the set cannot grow
// without bound and a wrapped-around sequence cannot collide with an
// ancient entry. The zero value is not usable; call NewRndvDedup.
type RndvDedup struct {
	seen map[RndvKey]rndvEntry
	done []RndvKey
}

type rndvEntry struct {
	sender   int // sender handle, for re-acks
	finished bool
}

// NewRndvDedup returns an empty rendezvous dedup set.
func NewRndvDedup() RndvDedup { return RndvDedup{seen: make(map[RndvKey]rndvEntry)} }

// Lookup reports whether key was already handled and, if so, the
// sender handle to re-ack and whether the transfer finished.
func (d *RndvDedup) Lookup(key RndvKey) (sender int, finished, seen bool) {
	e, seen := d.seen[key]
	return e.sender, e.finished, seen
}

// Record remembers a newly handled rendezvous; a key already recorded
// keeps its entry.
func (d *RndvDedup) Record(key RndvKey, sender int) {
	if _, ok := d.seen[key]; !ok {
		d.seen[key] = rndvEntry{sender: sender}
	}
}

// Finish marks a recorded rendezvous complete, so duplicate requests
// get re-acked instead of restarting the transfer, and forgets the
// oldest completed entry beyond the dedup window. Unknown keys are
// ignored.
func (d *RndvDedup) Finish(key RndvKey) {
	e, ok := d.seen[key]
	if !ok {
		return
	}
	e.finished = true
	d.seen[key] = e
	d.done = append(d.done, key)
	if len(d.done) > RndvDedupWindow {
		delete(d.seen, d.done[0])
		d.done = d.done[1:]
	}
}
