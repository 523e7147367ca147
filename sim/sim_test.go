package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if n := e.Run(); n != 0 {
		t.Fatalf("Run left %d procs", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-time events fired out of scheduling order: %v", got)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(-5, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("negative delay: ran=%v now=%v", ran, e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	ran := false
	tm := e.Schedule(10, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, d := range []Duration{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(25)
	if len(fired) != 2 || e.Now() != 25 {
		t.Fatalf("RunUntil(25): fired=%v now=%v", fired, e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("RunUntil(100): fired=%v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now = %v, want 1000", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			e.Schedule(1, rec)
		}
	}
	e.Schedule(1, rec)
	e.Run()
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := New()
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100)
		wake = p.Now()
	})
	if n := e.Run(); n != 0 {
		t.Fatalf("Run left %d procs", n)
	}
	if wake != 100 {
		t.Fatalf("woke at %v, want 100", wake)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := New()
	var marks []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			marks = append(marks, p.Now())
		}
	})
	e.Run()
	for i, m := range marks {
		if m != Time(10*(i+1)) {
			t.Fatalf("marks = %v", marks)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := New()
	s := NewSignal()
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Sleep(50)
		s.Broadcast()
	})
	if n := e.Run(); n != 0 {
		t.Fatalf("Run left %d procs blocked: %v", n, e.BlockedProcs())
	}
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestWaitFor(t *testing.T) {
	e := New()
	s := NewSignal()
	ready := false
	var doneAt Time
	e.Go("waiter", func(p *Proc) {
		p.WaitFor(s, func() bool { return ready })
		doneAt = p.Now()
	})
	e.Go("pokes", func(p *Proc) {
		p.Sleep(10)
		s.Broadcast() // condition still false: waiter must re-block
		p.Sleep(10)
		ready = true
		s.Broadcast()
	})
	if n := e.Run(); n != 0 {
		t.Fatalf("deadlock: %v", e.BlockedProcs())
	}
	if doneAt != 20 {
		t.Fatalf("doneAt = %v, want 20", doneAt)
	}
}

func TestWaitForAlreadyTrue(t *testing.T) {
	e := New()
	s := NewSignal()
	done := false
	e.Go("p", func(p *Proc) {
		p.WaitFor(s, func() bool { return true })
		done = true
	})
	if n := e.Run(); n != 0 || !done {
		t.Fatalf("n=%d done=%v", n, done)
	}
}

func TestDeadlockReported(t *testing.T) {
	e := New()
	s := NewSignal()
	e.Go("stuck", func(p *Proc) { s.Wait(p) })
	n := e.Run()
	if n != 1 {
		t.Fatalf("Run = %d, want 1 blocked proc", n)
	}
	if got := e.BlockedProcs(); len(got) != 1 || got[0] != "stuck" {
		t.Fatalf("BlockedProcs = %v", got)
	}
	e.Close()
}

func TestCloseUnstartedProc(t *testing.T) {
	e := New()
	e.Go("never", func(p *Proc) { t.Error("body ran") })
	e.Close() // start event pending, goroutine parked before body
}

func TestCloseNestedBlocked(t *testing.T) {
	e := New()
	s := NewSignal()
	for i := 0; i < 10; i++ {
		e.Go("w", func(p *Proc) {
			p.Sleep(5)
			s.Wait(p)
		})
	}
	e.Run()
	e.Close()
	if len(e.BlockedProcs()) != 0 {
		t.Fatal("procs survived Close")
	}
}

func TestYieldOrdering(t *testing.T) {
	e := New()
	var got []string
	e.Go("a", func(p *Proc) {
		got = append(got, "a1")
		p.Yield()
		got = append(got, "a2")
	})
	e.Go("b", func(p *Proc) {
		got = append(got, "b1")
	})
	e.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestProcZeroSleepIsNoop(t *testing.T) {
	e := New()
	e.Go("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-10)
		if p.Now() != 0 {
			t.Errorf("time moved: %v", p.Now())
		}
	})
	e.Run()
}

// Property: any random batch of events fires in nondecreasing time
// order, and the engine clock equals the max event time afterwards.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		count := int(n%64) + 1
		var fired []Time
		var maxT Time
		for i := 0; i < count; i++ {
			d := Duration(rng.Int63n(1_000_000))
			if d > maxT {
				maxT = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != count || e.Now() != maxT {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: simulation trajectories are reproducible — two identical
// runs with interleaved procs and events produce identical traces.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		s := NewSignal()
		var trace []Time
		for i := 0; i < 8; i++ {
			d := Duration(rng.Int63n(1000))
			e.Go("p", func(p *Proc) {
				p.Sleep(d)
				trace = append(trace, p.Now())
				s.Broadcast()
				p.Sleep(d / 2)
				trace = append(trace, p.Now())
			})
		}
		e.Run()
		return trace
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestPendingCount(t *testing.T) {
	e := New()
	tm := e.Schedule(5, func() {})
	e.Schedule(10, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	tm.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending after Stop = %d", e.Pending())
	}
}

// Stats counts fired events (not cancelled ones), process switches
// and the live peaks.
func TestStatsCounts(t *testing.T) {
	e := New()
	e.Go("a", func(p *Proc) {
		p.Sleep(10)
		p.Sleep(10)
	})
	e.Schedule(5, func() {})
	e.Schedule(7, func() {}).Stop()
	e.Run()
	// a's start step, the 5 ns callback, and a wake plus a step per Sleep.
	want := Stats{Events: 6, Switches: 3, PeakEvents: 3, PeakProcs: 1}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

// Two identical runs report identical Stats: the counters describe
// the simulated program, not the machine running it.
func TestStatsDeterministic(t *testing.T) {
	run := func(seed int64) Stats {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		defer e.Close()
		s := NewSignal()
		e.GoDaemon("poller", func(p *Proc) {
			for {
				s.Wait(p)
			}
		})
		for i := 0; i < 16; i++ {
			d := Duration(rng.Int63n(int64(2 * wheelHorizon)))
			e.Go("p", func(p *Proc) {
				p.Sleep(d)
				s.Broadcast()
				p.Yield()
				p.Sleep(d / 3)
			})
			tm := e.Schedule(Duration(rng.Int63n(1000)), s.Broadcast)
			if rng.Intn(3) == 0 {
				tm.Stop()
			}
		}
		if n := e.Run(); n != 0 {
			t.Fatalf("seed %d: blocked procs %v", seed, e.BlockedProcs())
		}
		return e.Stats()
	}
	for seed := int64(1); seed <= 8; seed++ {
		a, b := run(seed), run(seed)
		if a != b {
			t.Fatalf("seed %d: Stats differ between identical runs: %+v vs %+v", seed, a, b)
		}
		if a.Events == 0 || a.Switches == 0 || a.PeakEvents == 0 || a.PeakProcs != 17 {
			t.Fatalf("seed %d: implausible Stats %+v", seed, a)
		}
	}
}
