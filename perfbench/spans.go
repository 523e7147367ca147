package main

import (
	"time"

	"omxsim/sim"
	"omxsim/sim/trace"
)

// hspan is one host-time span the benchmark records around its calls
// into the simulator: job → setup / run / verify, and each omxsimd
// request. parent is the local index of the enclosing span within
// the job (-1 for the job itself).
type hspan struct {
	name       string
	parent     int
	start, end time.Time
}

// selfTimes sums each span name's self time — its duration minus the
// part its children cover — over every job, in ms.
func selfTimes(rs []jobResult) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rs {
		child := make([]time.Duration, len(r.spans))
		for _, s := range r.spans {
			if s.name != "" && s.parent >= 0 {
				child[s.parent] += s.end.Sub(s.start)
			}
		}
		for i, s := range r.spans {
			if s.name != "" {
				out[s.name] += ms(s.end.Sub(s.start) - child[i])
			}
		}
	}
	return out
}

// chromeSpans renders every job's spans as Chrome trace_event JSON,
// one track per job, timestamps relative to the run's start. Each
// span carries its id and its parent's id.
func chromeSpans(rs []jobResult, t0 time.Time) []byte {
	doc := trace.NewDoc()
	id := 0
	for _, r := range rs {
		p := doc.Process(r.idx+1, "job")
		base := id + 1
		for i, s := range r.spans {
			if s.name == "" {
				continue
			}
			parent := 0
			if s.parent >= 0 {
				parent = base + s.parent
			}
			p.Span(s.name, "perfbench", sim.Time(s.start.Sub(t0)), sim.Time(s.end.Sub(t0)),
				trace.Int("id", base+i), trace.Int("parent", parent))
		}
		id += len(r.spans)
	}
	return doc.Render()
}
