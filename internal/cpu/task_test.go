package cpu

import (
	"testing"

	"omxsim/sim"
)

// A Proc parked in RunOn waits for its own task only. Here b's RunOn
// runs after a's task retired but before a's step event, so a task
// record handed back to the pool at retirement (instead of when its
// Proc wakes) would be reused by b, and a would sleep on until b's
// work completes.
func TestRunOnWaitsForItsOwnTask(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	var aDone, bDone, bhDone sim.Time
	e.Go("b", func(p *sim.Proc) {
		p.Sleep(100)
		c.RunOn(p, UserLib, 30)
		bDone = p.Now()
	})
	e.Go("a", func(p *sim.Proc) {
		c.RunOn(p, UserLib, 100)
		aDone = p.Now()
	})
	// Bottom-half work queued while a is parked runs next, ahead of b.
	e.Schedule(10, func() { c.Exec(BHProc, 20, func() { bhDone = e.Now() }) })
	if n := e.Run(); n != 0 {
		t.Fatalf("blocked procs: %v", e.BlockedProcs())
	}
	if aDone != 100 || bhDone != 120 || bDone != 150 {
		t.Fatalf("a resumed at %v, bottom half done at %v, b resumed at %v; want 100, 120, 150", aDone, bhDone, bDone)
	}
}

// Task records are reused across Exec, ExecDyn, RunOn and RunOnDyn on
// one core; every piece of work still completes exactly once: each
// callback runs once, the core accounts each duration once, and a
// Proc returns from RunOn only after its own work ran.
func TestRecycledTaskCompletesOnce(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	const rounds = 16
	calls := make([]int, 2*rounds)
	var want sim.Duration
	for i := 0; i < rounds; i++ {
		i := i
		e.Schedule(sim.Duration(40*i), func() {
			c.Exec(UserLib, 5, func() { calls[i]++ })
			c.ExecDyn(BHCopy, func(finish func(extra sim.Duration)) {
				e.Schedule(4, func() { finish(1) })
			})
			c.Exec(BHProc, 3, func() { calls[rounds+i]++ })
		})
		want += 5 + 5 + 3
	}
	e.Go("p", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			t0 := p.Now()
			c.RunOn(p, AppCompute, 7)
			t1 := p.Now()
			c.RunOnDyn(p, BHCopy, func(finish func(extra sim.Duration)) {
				e.Schedule(2, func() { finish(2) })
			})
			if t1-t0 < 7 || p.Now()-t1 < 4 {
				t.Errorf("round %d: RunOn returned after %v, RunOnDyn after %v; want at least 7 and 4", i, t1-t0, p.Now()-t1)
			}
		}
	})
	want += rounds * (7 + 4)
	if n := e.Run(); n != 0 {
		t.Fatalf("blocked procs: %v", e.BlockedProcs())
	}
	for i, n := range calls {
		if n != 1 {
			t.Fatalf("callback %d ran %d times, want once", i, n)
		}
	}
	if got := s.TotalBusy(); got != want {
		t.Fatalf("core busy %v, want %v", got, want)
	}
}

// A dynamic task's finish may be called only once.
func TestDynFinishTwicePanics(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	c.ExecDyn(BHCopy, func(finish func(extra sim.Duration)) {
		finish(10)
		defer func() {
			if recover() == nil {
				t.Fatal("second finish did not panic")
			}
		}()
		finish(10)
	})
	e.Run()
}

// RunOnDyn wakes its Proc at the instant the core retires the task and
// strictly after it: the poll time, extra included, is on the core's
// ledger, and events the retirement files come first. Here that is a
// zero-length task queued behind the poll, which completes before the
// Proc resumes. A wake filed ahead of a deferred (extra > 0)
// retirement would let the Proc run first.
func TestRunOnDynWakesAfterRetirement(t *testing.T) {
	for _, extra := range []sim.Duration{0, 50} {
		e, s := newSys()
		c := s.Core(0)
		var woke, nextDone sim.Time = -1, -1
		var accounted sim.Duration
		nextDoneAtWake := false
		e.Go("poller", func(p *sim.Proc) {
			c.RunOnDyn(p, BHCopy, func(finish func(extra sim.Duration)) {
				e.Schedule(200, func() { finish(extra) })
			})
			woke = p.Now()
			accounted = c.BusyNs(BHCopy)
			nextDoneAtWake = nextDone >= 0
		})
		e.Schedule(1, func() { c.Exec(UserLib, 0, func() { nextDone = e.Now() }) })
		if n := e.Run(); n != 0 {
			t.Fatalf("extra %v: blocked procs: %v", extra, e.BlockedProcs())
		}
		end := 200 + extra
		if woke != end || accounted != end || nextDone != end || !nextDoneAtWake {
			t.Fatalf("extra %v: woke at %v with %v accounted; next task done at %v, before the wake %v; want %v, %v, %v, true",
				extra, woke, accounted, nextDone, nextDoneAtWake, end, end, end)
		}
	}
}

// Once the task pool and the waiting Signal are warm, RunOn allocates
// nothing (the gate BenchmarkRunOn enforces in make benchalloc).
func TestRunOnSteadyStateZeroAlloc(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	var allocs float64
	e.Go("p", func(p *sim.Proc) {
		c.RunOn(p, UserLib, 10)
		c.RunOn(p, UserLib, 10)
		allocs = testing.AllocsPerRun(200, func() { c.RunOn(p, UserLib, 10) })
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("RunOn allocated %.1f allocs/op in steady state, want 0", allocs)
	}
}

// BenchmarkRunOn is one Proc spending CPU time in a loop: the path
// every simulated library call, driver command and reduction takes.
func BenchmarkRunOn(b *testing.B) {
	e, s := newSys()
	c := s.Core(0)
	e.Go("bench", func(p *sim.Proc) {
		// Warm the task pool and both of the Signal's waiter slices.
		c.RunOn(p, UserLib, 10)
		c.RunOn(p, UserLib, 10)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.RunOn(p, UserLib, 10)
		}
		b.StopTimer()
	})
	e.Run()
}
