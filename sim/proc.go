package sim

import "fmt"

// Proc is a simulated process: a goroutine that runs in lock-step with
// the engine. At most one Proc (or the engine itself) executes at any
// real-time moment, which keeps the whole simulation deterministic and
// lock-free.
//
// A Proc advances simulated time only through the blocking helpers
// (Sleep, Signal.Wait, ...). Plain Go computation inside a Proc takes
// zero simulated time.
type Proc struct {
	e        *Engine
	name     string
	resume   chan struct{}
	yield    chan struct{}
	dead     chan struct{} // closed by Engine.Close to abort the goroutine
	woken    bool          // a wake event is already scheduled
	finished bool          // goroutine has exited; step becomes a no-op
	daemon   bool          // service loop: excluded from deadlock accounting
}

// procAbort is the panic value used to unwind an aborted Proc.
type procAbort struct{}

// Go starts fn as a new simulated process. fn begins executing at the
// current simulated time (as a scheduled event). The call returns
// immediately; the process body runs when the engine reaches it.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		e:      e,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
		dead:   make(chan struct{}),
	}
	e.procs[p] = struct{}{}
	e.stats.PeakProcs = max(e.stats.PeakProcs, len(e.procs))
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procAbort); !ok {
					panic(r)
				}
			}
			delete(e.procs, p)
			if p.daemon {
				e.daemons--
			}
			p.finished = true
			p.yield <- struct{}{}
		}()
		select {
		case <-p.resume:
		case <-p.dead:
			panic(procAbort{})
		}
		fn(p)
	}()
	e.scheduleStep(0, p)
	return p
}

// GoDaemon starts fn as a daemon process: a service loop (a NIC bottom
// half, a background poller) that legitimately never exits. Daemons
// are excluded from Engine.Run's blocked-process count, so a drained
// simulation with only daemons parked reports a clean run rather than
// a deadlock.
func (e *Engine) GoDaemon(name string, fn func(p *Proc)) *Proc {
	p := e.Go(name, fn)
	p.daemon = true
	e.daemons++
	return p
}

// Daemon reports whether the process was started with GoDaemon.
func (p *Proc) Daemon() bool { return p.daemon }

// step transfers control to the process goroutine and waits for it to
// block or finish. Called only from engine context. A step on a
// finished process is a no-op (stale wake events are harmless).
func (p *Proc) step() {
	if p.finished {
		return
	}
	p.e.stats.Switches++
	p.resume <- struct{}{}
	<-p.yield
}

// abort unwinds the process goroutine. Called from Engine.Close, always
// while the process is parked (waiting on resume or dead).
func (p *Proc) abort() {
	if p.finished {
		return
	}
	close(p.dead)
	<-p.yield
}

// block suspends the process until something calls wake. Called only
// from process context.
func (p *Proc) block() {
	p.yield <- struct{}{}
	select {
	case <-p.resume:
	case <-p.dead:
		panic(procAbort{})
	}
	if p.e.closing {
		panic(procAbort{})
	}
}

// wake schedules the process to continue at the current simulated time.
// It is idempotent until the process actually runs. Safe to call from
// engine context (event callbacks) or from another process.
//
// wake is a low-level primitive: calling it on a process that is
// blocked for an unrelated reason would end that wait early. Shared
// abstractions must use Signal (whose waiters re-check conditions)
// rather than holding raw *Proc handles.
func (p *Proc) wake() {
	if p.woken {
		return
	}
	p.woken = true
	p.e.scheduleStep(0, p)
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.e.now }

// Sleep suspends the process for d simulated nanoseconds.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	p.e.scheduleWake(d, p)
	p.block()
}

// Yield gives other events scheduled at the current instant a chance to
// run before the process continues.
func (p *Proc) Yield() {
	p.e.scheduleWake(0, p)
	p.block()
}

// WaitFor repeatedly waits on s until cond() is true. It returns
// immediately (without blocking) if the condition already holds.
func (p *Proc) WaitFor(s *Signal, cond func() bool) {
	for !cond() {
		s.Wait(p)
	}
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// Signal is a broadcast wakeup primitive, analogous to a condition
// variable: processes Wait on it, and Broadcast wakes all current
// waiters. There is no notion of a "missed" signal; callers are
// expected to re-check their condition in a loop (or use WaitFor).
type Signal struct {
	waiters []*Proc
	spare   []*Proc // retired waiter slice, reused to keep Wait allocation-free
}

// NewSignal returns a new signal. The zero value is also usable.
func NewSignal() *Signal { return &Signal{} }

// Wait suspends p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.block()
}

// Broadcast wakes every process currently waiting on s. Waiters are
// drained into a spare buffer first, so processes that Wait again
// while the broadcast runs land on a fresh list (and the two backing
// arrays alternate instead of reallocating every cycle).
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = s.spare[:0]
	for _, p := range ws {
		p.wake()
	}
	for i := range ws {
		ws[i] = nil
	}
	s.spare = ws[:0]
}

// Waiters reports the number of processes currently waiting.
func (s *Signal) Waiters() int { return len(s.waiters) }
