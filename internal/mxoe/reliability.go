package mxoe

import (
	"omxsim/internal/proto"
	"omxsim/sim"
)

// Firmware-level reliability for the native MX stack. The real
// Myri-10G firmware guarantees delivery below the host's sight: no
// interrupt, no kernel, no host CPU cycle is spent on acks or
// retransmission. The model mirrors that — every structure here is
// mutated in firmware context (frame arrival or timer expiry) and
// charges nothing to any core. On a clean link with a progressing
// receiver none of these timers ever fires and no extra frame is
// emitted, so the loss-free fast path is bit-identical to the
// unhardened stack.
//
// One deliberate asymmetry: the *initial* ack of an eager message is
// emitted when the receiving library processes the completion event
// (mxoe.go, handleEagerFrag), not at firmware deposit time — exactly
// where the unhardened stack emitted it, keeping clean-path wire
// timing unchanged. A receiver that stalls longer than the sender's
// timeout therefore costs at most one spurious retransmission, whose
// duplicate the firmware answers with an immediate ack of its own
// (fwEager's dup path) — after that the sender is quiet again.
//
// The wire protocol is the shared MXoE one (internal/proto), so the
// hardened firmware stays interoperable with Open-MX peers: cumulative
// acks use the same serial-number semantics as internal/core.

// mxTxChan is the firmware's per-(endpoint, peer) transmit
// reliability state: the shared sequence, cumulative-ack and
// retransmission-timer machinery over the unacked eager messages.
type mxTxChan = proto.TxChan[*mxUnacked]

// mxUnacked snapshots one eager message's frames for retransmission
// (the NIC keeps the data; the host buffer was released at post).
type mxUnacked struct {
	proto.TxSend
	msgs  []*proto.Eager
	loads [][]byte
}

// mxRxChan is the firmware's per-(endpoint, peer) receive window:
// the shared cumulative completion window plus, per in-flight eager
// message, the fragments accepted so far, for duplicate suppression.
type mxRxChan struct {
	win proto.Window
	asm map[uint32]*proto.Reassembly
}

// mxTx returns (creating on demand) the firmware tx channel to dst.
func (ep *Endpoint) mxTx(dst proto.Addr) *mxTxChan {
	tc := ep.tx[dst]
	if tc == nil {
		tc = &mxTxChan{Dst: dst}
		ep.tx[dst] = tc
	}
	return tc
}

// mxRx returns (creating on demand) the firmware rx window from src.
func (ep *Endpoint) mxRx(src proto.Addr) *mxRxChan {
	c := ep.rx[src]
	if c == nil {
		c = &mxRxChan{win: proto.NewWindow(), asm: make(map[uint32]*proto.Reassembly)}
		ep.rx[src] = c
	}
	return c
}

// armEagerRtx (re)arms a channel's eager retransmission timer. On
// expiry the firmware re-streams every unacked message from its
// snapshot; receivers deduplicate.
func (ep *Endpoint) armEagerRtx(tc *mxTxChan) {
	s := ep.S
	tc.Arm(s.H.E, &s.peers, func(unacked []*mxUnacked) {
		s.Stats.EagerRetransmits++
		s.Trace.Retransmit(s.H.E.Now(), unacked[0].Seq, -1, 0)
		for _, u := range unacked {
			for i, m := range u.msgs {
				// Same lane as the original fragment, so a lossy
				// lane retries on itself and stays attributable.
				s.transmitOn(s.laneOf(u.Seq, m.FragID), tc.Dst, m, u.loads[i])
			}
		}
	})
}

// armRndvRtx watches a rendezvous send: with no pull progress since
// the last expiry it re-sends the request (the receiver deduplicates
// and, if the transfer already finished, re-acks).
func (s *Stack) armRndvRtx(ms *mxSend) {
	ms.rtx = s.H.E.Schedule(s.peers.RTO(ms.dst, ms.attempts), func() {
		if ms.finished {
			return
		}
		if !ms.pulled {
			ms.attempts++
			s.Stats.RndvRetransmits++
			s.Trace.Retransmit(s.H.E.Now(), ms.seq, -1, s.laneOf(ms.seq, 0))
			s.transmitOn(s.laneOf(ms.seq, 0), ms.dst, &proto.RndvRequest{
				Src: ms.ep.Addr(), Dst: ms.dst,
				Match: ms.req.Match(), Seq: ms.seq, MsgLen: ms.n,
				SenderHandle: ms.handle,
			}, nil)
		} else {
			ms.attempts = 0
		}
		ms.pulled = false
		s.armRndvRtx(ms)
	})
}

// mxBlock is one outstanding pull block on the receiver: the
// hole-aware accepted-fragment bitmap (arrival order is arbitrary
// once blocks stripe across NICs) and the retransmission timer that
// re-requests the rest.
type mxBlock struct {
	idx       int
	firstFrag int
	asm       proto.Reassembly
	timer     sim.Timer
	attempts  int
	// sentAt is the first request time (the request -> completion
	// round trip is an RTT sample); rtxed marks a retried block, never
	// sampled (Karn's rule).
	sentAt sim.Time
	rtxed  bool
}

// armBlockTimer (re)arms a pull block's retransmission timer: on
// expiry the firmware re-requests the block's missing fragments.
func (s *Stack) armBlockTimer(lp *mxPull, blk *mxBlock) {
	blk.timer.Stop()
	blk.timer = s.H.E.Schedule(s.peers.RTO(lp.src, blk.attempts), func() {
		if lp.done || blk.asm.Done() {
			return
		}
		blk.attempts++
		blk.rtxed = true
		s.Stats.PullRetransmits++
		s.Trace.Retransmit(s.H.E.Now(), lp.key.Seq, blk.idx, s.laneOf(lp.key.Seq, blk.idx))
		if lp.aw != nil {
			// The timeout is the loss signal: halve the window once per
			// loss epoch (the next clean sample reopens the epoch).
			lp.aw.OnLoss()
		}
		s.sendPull(lp, blk, blk.asm.Missing())
	})
}

// sendPull transmits one pull request for the masked fragments of a
// block — on the block's stripe lane, where the data answers — and
// arms its retransmission timer.
func (s *Stack) sendPull(lp *mxPull, blk *mxBlock, mask uint64) {
	s.transmitOn(s.laneOf(lp.key.Seq, blk.idx), lp.src, &proto.Pull{
		Src: lp.ep.Addr(), Dst: lp.src,
		SenderHandle: lp.senderHandle, RecvHandle: lp.handle,
		Block: blk.idx, FirstFrag: blk.firstFrag, FragCount: blk.asm.Frags,
		NeedMask: mask,
	}, nil)
	s.armBlockTimer(lp, blk)
}
