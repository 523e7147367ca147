package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"omxsim/sim/trace"
)

// small runs only a workload's first block or two: enough to exercise
// every stack and shape the generator mixes.
var small = map[string]int{
	"pingpong-large": 12,
	"coll-fattree":   21,
	"lossy-adaptive": 27,
	"service-sweeps": 16,
}

func metricOf(t *testing.T, rep *report, name string) float64 {
	t.Helper()
	for _, m := range rep.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("metric %q missing", name)
	return 0
}

func mustRun(t *testing.T, o options) *report {
	t.Helper()
	rep, err := runBench(o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSameSeedBitIdentical runs each workload twice on one seed: the
// simulated metrics and every counter must agree exactly, and every
// job must verify.
func TestSameSeedBitIdentical(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			o := options{workload: wl.name, seed: 7, prefix: small[wl.name]}
			a, b := mustRun(t, o), mustRun(t, o)
			for _, rep := range []*report{a, b} {
				if !rep.correct {
					t.Fatalf("run failed verification: %v", rep.errs)
				}
			}
			for _, name := range []string{"sim_s", "sim_cpu_us_per_mib"} {
				if x, y := metricOf(t, a, name), metricOf(t, b, name); x != y {
					t.Errorf("%s: %v then %v", name, x, y)
				}
			}
			for i := range a.prefix {
				if !sameSimulation(a.prefix[i], b.prefix[i]) {
					t.Errorf("job %d: simulated outcome differs between runs", i)
				}
			}
		})
	}
}

// TestTracedRunMatchesUntraced checks that the traced run, which
// executes every job once untraced and once traced, verifies and
// finds the two executions identical, reports the per-layer metrics,
// and writes its spans as valid Chrome trace JSON.
func TestTracedRunMatchesUntraced(t *testing.T) {
	dir := t.TempDir()
	rep := mustRun(t, options{workload: "pingpong-large", seed: 3, prefix: 12, trace: true, out: dir})
	if !rep.correct {
		t.Fatalf("traced run failed: %v", rep.errs)
	}
	data, err := os.ReadFile(filepath.Join(dir, "spans-pingpong-large-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(data); err != nil {
		t.Errorf("span file: %v", err)
	}
	if v := metricOf(t, rep, "trace.memcpy_self_us"); v <= 0 {
		t.Errorf("trace.memcpy_self_us = %v, want > 0", v)
	}
	if v := metricOf(t, rep, "sim.switch_ns"); v <= 0 {
		t.Errorf("sim.switch_ns = %v, want > 0", v)
	}
}

// TestSeedChangesInputs checks that another seed generates other
// inputs, and so other simulated results.
func TestSeedChangesInputs(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a := mustRun(t, options{workload: wl.name, seed: 1, prefix: small[wl.name]})
			b := mustRun(t, options{workload: wl.name, seed: 2, prefix: small[wl.name]})
			if reflect.DeepEqual(a.inputs, b.inputs) {
				t.Fatal("seeds 1 and 2 generated the same inputs")
			}
			if metricOf(t, a, "sim_s") == metricOf(t, b, "sim_s") {
				t.Error("seeds 1 and 2 simulated the same total time")
			}
		})
	}
}

// TestCorruptedPayloadFails flips one byte of every delivered payload
// before it is checked: every job that moves a payload (all but
// barriers) must fail, and failed_frac must count them, which proves
// the check can fail.
func TestCorruptedPayloadFails(t *testing.T) {
	for _, name := range []string{"pingpong-large", "coll-fattree", "lossy-adaptive"} {
		t.Run(name, func(t *testing.T) {
			rep := mustRun(t, options{workload: name, seed: 5, prefix: small[name], corrupt: true})
			want := 0
			for i, r := range rep.prefix {
				if rep.inputs[i].op == "Barrier" {
					continue
				}
				want++
				if r.err == "" {
					t.Errorf("job %d (%s %s) passed with a corrupted payload", i, rep.inputs[i].stack.name, rep.inputs[i].op)
				}
			}
			if rep.correct || rep.failed != want {
				t.Errorf("%d of %d jobs failed, want %d", rep.failed, rep.attempted, want)
			}
			if f, w := metricOf(t, rep, "failed_frac"), float64(want)/float64(rep.attempted); f != w {
				t.Errorf("failed_frac = %v, want %v", f, w)
			}
		})
	}
}
