package mxoe

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/mxlib"
	"omxsim/internal/proto"
	"omxsim/sim"
)

// MX intra-node communication: a user-space shared-memory channel.
// The sender copies the payload into a shared segment and signals the
// peer; the receiving library matches and copies the segment into the
// destination — the classic double-copy shm transport MX shipped with.
// (Open-MX's one-copy driver path, and its I/OAT variant, are what
// Figure 10 compares against this style of design.)
//
// The model reuses the unexpected-eager machinery: a fully assembled
// message whose temporary storage is the shared segment.

// shmChunk is the shared-segment granularity: messages stream through
// the channel in chunks, so for large messages the sender's copy of
// chunk k overlaps the receiver's copy of chunk k-1 and the critical
// path is roughly ONE copy plus one chunk.
const shmChunk = 32 * 1024

// shmSend copies the payload into a fresh shared segment on the
// sender's core and delivers it to the peer endpoint. The send
// completes at post time (buffered semantics, like MX shm). Only the
// pipeline-fill portion of the sender copy is on the critical path;
// the rest overlaps the receiver's copies, which is charged in full
// on the receiving side.
func (ep *Endpoint) shmSend(p *sim.Proc, dst proto.Addr, r *mxlib.Request) *mxlib.Request {
	s := ep.S
	to := s.endpoints[dst.EP]
	if to == nil {
		panic(fmt.Sprintf("mxoe: local send to unopened endpoint %d on %s", dst.EP, s.H.Name))
	}
	ep.core().RunOn(p, cpu.UserLib, sim.Duration(s.H.P.MXPostCost))
	seg := s.H.Alloc(r.N)
	if r.N > 0 {
		// Bytes all move (integrity); time charged for the first
		// chunk only (pipeline fill) when the message spans chunks.
		fill := min(r.N, shmChunk)
		var d sim.Duration
		if r.N > fill {
			d = s.H.Copy.CopyTime(seg, r.Buf, fill, ep.Core)
			s.H.Copy.Memcpy(seg, 0, r.Buf, r.Off, r.N, ep.Core)
		} else {
			d = s.H.Copy.Memcpy(seg, 0, r.Buf, r.Off, r.N, ep.Core)
		}
		ep.core().RunOn(p, cpu.UserLib, d)
	}
	to.Push(&event{kind: evShm, msg: &mxlib.Message{Src: ep.Addr(), Match: r.Match(), Len: r.N, Tmp: seg}})
	r.Finish()
	return r
}
