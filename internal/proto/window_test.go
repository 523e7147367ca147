package proto

import (
	"testing"

	"omxsim/sim"
)

// TestTxChanCumulativeAckWraparound: a cumulative ack past the 32-bit
// wrap completes the pre-wrap sends too, in order, and a stale
// pre-wrap ack afterwards completes nothing. The table starts the
// counter at several offsets before the wrap.
func TestTxChanCumulativeAckWraparound(t *testing.T) {
	for _, start := range []uint32{^uint32(0) - 1, ^uint32(0) - 2, ^uint32(0)} {
		tc := &TxChan[*TxSend]{nextSeq: start, acked: start}
		var seqs []uint32
		for i := 0; i < 4; i++ {
			seq := tc.Next()
			if seq == 0 {
				t.Fatal("sequence 0 issued (reserved for 'no ack')")
			}
			seqs = append(seqs, seq)
			tc.Unacked = append(tc.Unacked, &TxSend{Seq: seq})
		}
		done, _ := tc.Ack(seqs[2], 0)
		if len(done) != 3 {
			t.Fatalf("start %#x: cumulative ack %#x released %d sends, want 3", start, seqs[2], len(done))
		}
		for i, u := range done {
			if u.Seq != seqs[i] {
				t.Fatalf("start %#x: completed %#x at %d, want %#x (oldest first)", start, u.Seq, i, seqs[i])
			}
		}
		if len(tc.Unacked) != 1 || tc.Unacked[0].Seq != seqs[3] {
			t.Fatalf("start %#x: unacked after wrap ack: %+v", start, tc.Unacked)
		}
		if done, _ := tc.Ack(seqs[0], 0); done != nil {
			t.Fatalf("start %#x: stale pre-wrap ack advanced the channel", start)
		}
	}
}

// TestWindowWraparound: the receive window's edge walks across the
// wrap, skipping the sentinel 0, and keeps flagging both sides as
// duplicates.
func TestWindowWraparound(t *testing.T) {
	w := NewWindowAt(^uint32(0) - 1)
	w.MarkComplete(^uint32(0))
	if w.Edge() != ^uint32(0) {
		t.Fatalf("edge %#x, want %#x", w.Edge(), ^uint32(0))
	}
	if w.IsDup(1) {
		t.Fatal("first post-wrap seq wrongly flagged dup")
	}
	w.MarkComplete(2) // ahead of a hole: recorded, edge stays
	if w.Edge() != ^uint32(0) || w.Pending() != 1 || !w.IsDup(2) {
		t.Fatalf("edge %#x pending %d after out-of-order 2", w.Edge(), w.Pending())
	}
	w.MarkComplete(1)
	if w.Edge() != 2 || w.Pending() != 0 {
		t.Fatalf("edge %#x pending %d after filling the hole, want 2 and 0 (skipping sentinel 0)", w.Edge(), w.Pending())
	}
	if !w.IsDup(^uint32(0)) || !w.IsDup(1) || !w.IsDup(2) {
		t.Fatal("completed seqs not flagged dup after wrap")
	}
}

// TestTxChanKarnSample: an ack's RTT sample comes from the newest
// completed send that was never retransmitted; a batch of only
// retransmitted sends, or a stale ack, yields no sample.
func TestTxChanKarnSample(t *testing.T) {
	send := func(tc *TxChan[*TxSend], at sim.Time, rtxed bool) {
		tc.Unacked = append(tc.Unacked, &TxSend{Seq: tc.Next(), SentAt: at, Rtxed: rtxed})
	}
	tc := &TxChan[*TxSend]{}
	send(tc, 100, false)
	send(tc, 200, false) // newest clean send of the first batch
	send(tc, 300, true)  // newest overall, but retransmitted
	done, sample := tc.Ack(3, 1000)
	if len(done) != 3 || sample != 800 {
		t.Fatalf("acked %d sends, sample %v; want 3 and 800 (1000 - 200)", len(done), sample)
	}
	send(tc, 1100, true)
	send(tc, 1200, true)
	if done, sample := tc.Ack(5, 2000); len(done) != 2 || sample != -1 {
		t.Fatalf("all-retransmitted batch: acked %d, sample %v; want 2 and -1", len(done), sample)
	}
	if done, sample := tc.Ack(4, 3000); done != nil || sample != -1 {
		t.Fatalf("stale ack: acked %d, sample %v; want none and -1", len(done), sample)
	}
}

// TestPeersRTOStatic: the timeout is the static base (backed off per
// attempt) before the first RTT sample, and always when adaptive RTO
// is off — on a static stack or with an explicitly pinned timeout —
// even once samples arrive.
func TestPeersRTOStatic(t *testing.T) {
	sched := Schedule{Base: 50 * sim.Millisecond, Backoff: 2, Max: 800 * sim.Millisecond}
	peer := Addr{Host: "b"}
	cases := []struct {
		name              string
		adaptive, pinned  bool
		sampledDerivesRTO bool
	}{
		{"static", false, false, false},
		{"adaptive-pinned", true, true, false},
		{"adaptive", true, false, true},
	}
	for _, c := range cases {
		p := NewPeers(c.adaptive, c.pinned, sched, 1)
		for attempts, want := range []sim.Duration{50, 100, 200, 400, 800, 800} {
			if got := p.RTO(peer, attempts); got != want*sim.Millisecond {
				t.Fatalf("%s: RTO before any sample at attempt %d = %v, want %vms", c.name, attempts, got, want)
			}
		}
		_, ok := p.Observe(peer, 100*sim.Microsecond)
		if ok != c.adaptive {
			t.Fatalf("%s: Observe recorded = %v, want %v", c.name, ok, c.adaptive)
		}
		got := p.RTO(peer, 0)
		if c.sampledDerivesRTO {
			if got != MinRTO {
				t.Fatalf("%s: RTO after a 100µs sample = %v, want the %v floor", c.name, got, MinRTO)
			}
		} else if got != sched.Base {
			t.Fatalf("%s: RTO after a sample = %v, want the static base %v", c.name, got, sched.Base)
		}
		if got := p.RTO(Addr{Host: "c"}, 0); got != sched.Base {
			t.Fatalf("%s: unsampled peer RTO = %v, want the static base", c.name, got)
		}
	}
}

// TestPeersWindowBounds: adaptive stacks get one AIMD window per peer,
// bounded by [2, 4 x lanes]; static stacks get none.
func TestPeersWindowBounds(t *testing.T) {
	sched := Schedule{Base: sim.Second, Backoff: 1, Max: sim.Second}
	static := NewPeers(false, false, sched, 2)
	if static.Window(Addr{}) != nil {
		t.Fatal("static stack returned a pull window")
	}
	p := NewPeers(true, false, sched, 3)
	w := p.Window(Addr{Host: "b"})
	if w.Min() != 2 || w.Max() != 12 || w.Window() != 2 {
		t.Fatalf("window bounds [%d, %d] start %d, want [2, 12] start 2", w.Min(), w.Max(), w.Window())
	}
	if p.Window(Addr{Host: "b"}) != w || p.Window(Addr{Host: "c"}) == w {
		t.Fatal("windows must be per peer and persist across lookups")
	}
}

// TestRndvDedupBounded: finished rendezvous are re-ackable with their
// sender handle until RndvDedupWindow later completions push them out;
// unfinished ones are never evicted.
func TestRndvDedupBounded(t *testing.T) {
	d := NewRndvDedup()
	key := func(i int) RndvKey { return RndvKey{Src: Addr{Host: "a"}, Seq: uint32(i)} }
	d.Record(key(0), 7)
	d.Record(key(0), 99) // a re-record keeps the first entry
	if sender, finished, seen := d.Lookup(key(0)); !seen || finished || sender != 7 {
		t.Fatalf("in-progress lookup = (%d, %v, %v), want (7, false, true)", sender, finished, seen)
	}
	d.Finish(key(0))
	if _, finished, _ := d.Lookup(key(0)); !finished {
		t.Fatal("finished rendezvous not flagged")
	}
	d.Record(key(-1), 1) // stays in progress throughout
	for i := 1; i <= RndvDedupWindow; i++ {
		d.Record(key(i), i)
		d.Finish(key(i))
	}
	if _, _, seen := d.Lookup(key(0)); seen {
		t.Fatal("oldest finished rendezvous not evicted past the window")
	}
	if _, _, seen := d.Lookup(key(1)); !seen {
		t.Fatal("rendezvous inside the window evicted")
	}
	if _, _, seen := d.Lookup(key(-1)); !seen {
		t.Fatal("in-progress rendezvous evicted")
	}
	d.Finish(key(12345)) // unknown keys are ignored
	if _, _, seen := d.Lookup(key(12345)); seen {
		t.Fatal("Finish recorded an unknown key")
	}
}

// TestTxChanArmBacksOff: with nothing acked the timer fires on the
// backed-off schedule, marking the resent sends retransmitted; an ack
// that drains the channel stops it and resets the backoff.
func TestTxChanArmBacksOff(t *testing.T) {
	e := sim.New()
	defer e.Close()
	peers := NewPeers(false, false, Schedule{Base: sim.Millisecond, Backoff: 2, Max: 4 * sim.Millisecond}, 1)
	tc := &TxChan[*TxSend]{}
	var fired []sim.Time
	resend := func(unacked []*TxSend) {
		if !unacked[0].Rtxed {
			t.Fatal("resent send not marked retransmitted")
		}
		fired = append(fired, e.Now())
	}
	tc.Arm(e, &peers, resend) // nothing unacked: no timer
	if e.Pending() != 0 {
		t.Fatal("timer armed with nothing unacked")
	}
	tc.Unacked = append(tc.Unacked, &TxSend{Seq: tc.Next()})
	tc.Arm(e, &peers, resend)
	tc.Arm(e, &peers, resend) // already pending: no second timer
	e.RunUntil(sim.Time(12 * sim.Millisecond))
	want := []sim.Time{1, 3, 7, 11} // 1, 2, 4, then capped at 4 ms
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v ms", fired, want)
	}
	for i := range want {
		if fired[i] != want[i]*sim.Time(sim.Millisecond) {
			t.Fatalf("fired at %v, want %v ms", fired, want)
		}
	}
	if done, _ := tc.Ack(1, e.Now()); len(done) != 1 || tc.attempts != 0 || tc.rtx.Pending() {
		t.Fatal("draining ack must complete the send, reset the backoff and stop the timer")
	}
}
