package core

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/mxlib"
	"omxsim/internal/proto"
	"omxsim/sim"
)

// Intra-node communication (Section III-C, Figure 10).
//
// Open-MX routes local messages through the driver with the same
// command/event interface as network messages — the library does not
// even know the peer is local. The transfer itself is ONE copy,
// performed inside a system call directly from the source process's
// pages to the destination process's pages, once the receiver has
// matched. The copy is either a processor memcpy (whose rate depends
// on cache sharing between the two processes — the three curves of
// Figure 10) or, with Config.IOATShm and beyond ShmIOATThreshold, a
// blocking I/OAT copy: submit page descriptors, then busy-poll the
// engine, since the hardware cannot raise a completion interrupt.

// localSend reports the message to the destination endpoint's event
// queue through the driver; the data stays in the sender's pages
// until the receiver matches it. The send completes when the
// receiver's one-copy finishes.
func (ep *Endpoint) localSend(p *sim.Proc, dst proto.Addr, r *mxlib.Request) {
	s := ep.S
	to := s.endpoints[dst.EP]
	if to == nil {
		panic(fmt.Sprintf("openmx: local send to unopened endpoint %d on %s", dst.EP, s.H.Name))
	}
	ep.core().RunOn(p, cpu.DriverCmd, sim.Duration(s.H.P.SyscallCost+s.H.P.OMXEventCost))
	s.Stats.LocalMsgs++
	to.Push(&event{kind: evLocalMsg, msg: &mxlib.Message{
		Src: ep.Addr(), Match: r.Match(), Len: r.N,
		Start: func(p *sim.Proc, recv *mxlib.Request) { to.localPull(p, recv, ep, r) },
	}})
}

// localPull performs the one-copy transfer of send from src's pages
// into the matched receive r in the receiving process's system-call
// context, then completes both sides.
func (ep *Endpoint) localPull(p *sim.Proc, r *mxlib.Request, src *Endpoint, send *mxlib.Request) {
	s := ep.S
	n := r.Len()
	ep.core().RunOn(p, cpu.DriverCmd, sim.Duration(s.H.P.SyscallCost))

	if s.Cfg.IOATShm && n >= s.Cfg.ShmIOATThreshold {
		// Blocking I/OAT copy: page-chunk descriptors, then wait.
		// The paper's implementation uses one channel and busy-polls
		// ("we rely on busy polling of the I/OAT hardware with no
		// overlap for now", Section IV-C); Config.StripeChannels and
		// Config.PredictiveSleep enable its Section V/VI extensions.
		chunks := pageChunks(r.Off, n, s.H.P.PageSize)
		// The whole local transfer happens inside one system call, so
		// its submission cost is accounted as driver time (the
		// cpu.IOATSubmit ledger tracks bottom-half submissions, whose
		// softirq priority must not apply in process context).
		ep.core().RunOn(p, cpu.DriverCmd, s.H.IOAT.SubmitCost(len(chunks)))
		k := max(1, s.Cfg.StripeChannels)
		seqs := s.stripedSubmit(r.Buf, r.Off, send.Buf, send.Off, chunks, k)
		s.Stats.LocalIOATCopies++
		var predicted sim.Duration
		if s.Cfg.PredictiveSleep {
			// Predict the longest channel's batch (chunk i goes to
			// channel i%k, so channel 0 carries the most work).
			var mine []int
			for i := 0; i < len(chunks); i += k {
				mine = append(mine, chunks[i])
			}
			predicted = s.predictIOAT(mine)
		}
		ep.waitStriped(p, cpu.DriverCmd, seqs, predicted)
	} else if n > 0 {
		d := s.H.Copy.Memcpy(r.Buf, r.Off, send.Buf, send.Off, n, ep.Core)
		ep.core().RunOn(p, cpu.DriverCmd, d)
	}

	r.Finish()
	// Completion event back to the sender's endpoint.
	ep.core().RunOn(p, cpu.DriverCmd, sim.Duration(s.H.P.OMXEventCost))
	src.Push(&event{kind: evLocalDone, req: send})
}
