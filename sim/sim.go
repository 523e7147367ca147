// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is a simulated nanosecond counter. Events scheduled for the same
// instant fire in scheduling order (ties broken by a monotonically
// increasing sequence number), so a given program always produces the
// same trajectory.
//
// Two programming styles are supported and freely mixed:
//
//   - callback style: Schedule(delay, fn) / At(t, fn), used by the
//     hardware models (NICs, DMA engines, timers);
//   - process style: Go(name, fn) starts a coroutine-like Proc that can
//     Sleep, wait on Signals, and occupy simulated CPU cores. Exactly
//     one goroutine (the engine or a single Proc) runs at any moment, so
//     no locking is needed anywhere in the simulation.
//
// The event queue is a calendar queue (timing wheel plus a far-future
// heap, see calq.go) with pooled event records: the steady-state
// schedule→fire→recycle cycle allocates nothing, which is what lets
// 512-rank fat-tree worlds run inside CI. Each wheel bucket is a list
// of events linked through the pooled records themselves, so a fresh
// engine allocates no per-bucket storage. Service loops that
// legitimately never exit (NIC bottom halves) are started with GoDaemon
// and excluded from deadlock accounting by flag rather than by name.
// Engine.Stats counts what the engine itself did: events fired,
// process switches, and the peak numbers of live events and procs.
package sim

import (
	"fmt"
	"sort"
)

// Time is a point in simulated time, in nanoseconds since Run started.
type Time int64

// Duration is a span of simulated time, in nanoseconds.
type Duration = Time

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Timer is a handle to a scheduled event that can be cancelled. The
// zero value is a stale handle: Stop and Pending report false. Timers
// are values (not pointers) so the schedule fast path allocates
// nothing; copy them freely.
type Timer struct {
	e   *Engine
	ev  *event
	gen uint32
}

// Pending reports whether the event is still scheduled: not yet fired,
// not cancelled, and the handle not stale.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled
}

// Stop cancels the timer. It reports whether the timer was still
// pending (i.e. Stop prevented the callback from running). Stopping a
// fired, already-stopped or zero Timer is a safe no-op: the event pool
// bumps a generation counter on recycle, so a stale handle can never
// cancel an unrelated event that reused the slot.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	t.ev.cancelled = true
	t.e.live--
	return true
}

// Engine is a discrete-event simulation engine.
// The zero value is not usable; call New.
type Engine struct {
	now     Time
	seq     uint64
	q       calq
	live    int // scheduled, non-cancelled events
	procs   map[*Proc]struct{}
	daemons int // live procs flagged as daemons
	closing bool
	running bool
	stats   Stats
}

// Stats counts what an engine has done since New. The counts depend
// only on the simulated program, so two identical runs report equal
// Stats.
type Stats struct {
	Events     int64 // events fired; cancelled events are not counted
	Switches   int64 // times control passed to a Proc and back
	PeakEvents int   // most live (scheduled, non-cancelled) events at once
	PeakProcs  int   // most started, unfinished Procs at once, daemons included
}

// Stats reports the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// New returns a ready-to-use engine at time zero.
func New() *Engine {
	return &Engine{procs: make(map[*Proc]struct{})}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run after delay. A negative delay is
// treated as zero. The returned Timer may be used to cancel it.
func (e *Engine) Schedule(delay Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute time t (clamped to now).
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.push(t)
	ev.fn = fn
	return Timer{e: e, ev: ev, gen: ev.gen}
}

// scheduleStep files a process-step event: when it fires, p resumes.
// No closure is built, so the Sleep/Yield/wake hot path is
// allocation-free.
func (e *Engine) scheduleStep(delay Duration, p *Proc) {
	if delay < 0 {
		delay = 0
	}
	ev := e.push(e.now + delay)
	ev.proc = p
}

// scheduleWake files a process-wake event: when it fires, p.wake runs
// (which in turn files the step event). This is the closure-free
// equivalent of the original Schedule(d, p.wake).
func (e *Engine) scheduleWake(delay Duration, p *Proc) {
	if delay < 0 {
		delay = 0
	}
	ev := e.push(e.now + delay)
	ev.proc = p
	ev.wakeup = true
}

// push allocates a pooled event at absolute time t (clamped to now)
// and files it in the calendar queue.
func (e *Engine) push(t Time) *event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.q.alloc()
	ev.at = t
	ev.seq = e.seq
	e.q.push(ev)
	e.live++
	e.stats.PeakEvents = max(e.stats.PeakEvents, e.live)
	return ev
}

// Pending reports the number of live (non-cancelled) scheduled events.
func (e *Engine) Pending() int { return e.live }

// fire runs one popped event and recycles it. The record is returned
// to the pool before the callback runs, so callbacks that immediately
// reschedule reuse the hot slot.
func (e *Engine) fire(ev *event) {
	fn, p, wakeup := ev.fn, ev.proc, ev.wakeup
	e.q.recycle(ev)
	e.live--
	e.stats.Events++
	switch {
	case p != nil && wakeup:
		p.wake()
	case p != nil:
		p.woken = false
		p.step()
	default:
		fn()
	}
}

// step pops and runs the next event. It reports false when no runnable
// event remains.
func (e *Engine) step() bool {
	ev := e.q.pop()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.fire(ev)
	return true
}

// Run executes events until none remain, then returns the number of
// processes still blocked, daemons excluded (0 means a clean fully
// drained run; nonzero usually indicates a protocol deadlock in the
// simulated program).
func (e *Engine) Run() int {
	e.running = true
	for e.step() {
	}
	e.running = false
	return len(e.procs) - e.daemons
}

// RunUntil executes events up to and including time t, leaving later
// events pending. The clock is left at t.
func (e *Engine) RunUntil(t Time) {
	for {
		next := e.q.pop()
		if next == nil {
			break
		}
		if next.at > t {
			// Not due yet: put it back. Re-pushing keeps its (at, seq)
			// key, so ordering is untouched.
			e.q.push(next)
			break
		}
		e.now = next.at
		e.fire(next)
	}
	if e.now < t {
		e.now = t
	}
}

// BlockedProcs returns the names of processes that have started but not
// finished, sorted for deterministic reporting. Daemons are included
// (they are blocked by design); Run's return value excludes them.
func (e *Engine) BlockedProcs() []string {
	var names []string
	for p := range e.procs {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}

// Daemons reports the number of live daemon processes (service loops
// started with GoDaemon that legitimately never exit).
func (e *Engine) Daemons() int { return e.daemons }

// Close aborts all live processes so their goroutines exit. The engine
// must not be used afterwards. It is safe to call on a fully drained
// engine (it is then a no-op) and is intended for tests and for
// tearing down deadlocked simulations.
func (e *Engine) Close() {
	e.closing = true
	for p := range e.procs {
		p.abort()
	}
	e.procs = map[*Proc]struct{}{}
	e.daemons = 0
}
