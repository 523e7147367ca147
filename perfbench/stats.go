package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"omxsim/cluster"
	"omxsim/internal/cpu"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/sim"
)

// Deterministic simulator counters of one job, indexed by the c*
// constants. Every entry comes from a public counter snapshot
// (cluster.NetStats, Stack.Stats, Stack.RegStats) taken after the job
// drained, so two runs of one job spec agree exactly.
type counters [nCounters]int64

const (
	cWireFrames  = iota // frames the hosts' NICs put on the wire
	cWireBytes          // bytes on host links and host→switch ports
	cForwarded          // frames switches forwarded
	cLost               // impairment loss on links and switch ports
	cDuped              // impairment duplicates
	cTailDrops          // queue-overflow drops
	cNICRx              // frames the NICs received
	cRingDrops          // receive-ring overflow drops
	cEager              // Open-MX eager messages sent
	cRndv               // Open-MX rendezvous requests sent
	cPulls              // Open-MX pull requests sent
	cMXFrags            // MXoE firmware fragments sent
	cIOATSubmits        // I/OAT descriptors submitted
	cRetransmits        // retransmissions, both stacks, every class
	cDupFrags           // duplicate fragments discarded, both stacks
	cRegHits            // registration-cache hits
	cRegMisses          // registration-cache misses
	nCounters
)

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// cpuLedger is simulated busy time per accounting category, summed
// over every host of a job.
type cpuLedger [cpu.NumCategories]sim.Duration

func (l *cpuLedger) addStats(st openmx.CPUStats) {
	for _, c := range st.Cores {
		for i, d := range c.Busy {
			l[i] += d
		}
	}
}

func (l *cpuLedger) add(o cpuLedger) {
	for i := range l {
		l[i] += o[i]
	}
}

// commCPU is the modelled host CPU a job spent communicating: every
// ledger except application compute.
func (l cpuLedger) commCPU() sim.Duration {
	var t sim.Duration
	for i, d := range l {
		if cpu.Category(i) != cpu.AppCompute {
			t += d
		}
	}
	return t
}

// netCounters folds a network snapshot into the counter vector.
func netCounters(c *counters, ns cluster.NetStats) {
	for _, h := range ns.Hosts {
		c[cWireFrames] += h.TxFrames
		c[cNICRx] += h.RxFrames
		c[cRingDrops] += h.RxDrops
	}
	dir := func(d cluster.DirStats, bytes bool) {
		c[cLost] += d.FramesLost
		c[cDuped] += d.FramesDuped
		c[cTailDrops] += d.TailDrops
		if bytes {
			c[cWireBytes] += d.BytesSent
		}
	}
	for _, l := range ns.Links {
		dir(l.AB, true)
		dir(l.BA, true)
	}
	for _, s := range ns.Switches {
		c[cForwarded] += s.Forwarded
		for _, p := range s.Ports {
			dir(p.In, true)
			dir(p.Out, false)
		}
	}
}

// stackCounters folds both stacks' protocol counters, registration
// caches and CPU ledgers into the job's totals.
func stackCounters(c *counters, l *cpuLedger, omx []*openmx.Stack, mx []*mxoe.Stack) {
	for _, s := range omx {
		st := s.Stats()
		c[cEager] += st.EagerSent
		c[cRndv] += st.RndvSent
		c[cPulls] += st.PullsSent
		c[cIOATSubmits] += st.IOATSubmits
		c[cRetransmits] += st.EagerRetransmits + st.RndvRetransmits + st.PullRetransmits
		c[cDupFrags] += st.DupFrags
		rs := s.RegStats()
		c[cRegHits] += rs.Hits
		c[cRegMisses] += rs.Misses
		l.addStats(s.CPUStats())
	}
	for _, s := range mx {
		st := s.Stats()
		c[cMXFrags] += st.FragsSent
		c[cRetransmits] += st.Retransmits()
		c[cDupFrags] += st.DupFrags
		rs := s.RegStats()
		c[cRegHits] += rs.Hits
		c[cRegMisses] += rs.Misses
		l.addStats(s.CPUStats())
	}
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs is sorted in place). Zero for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapAllocBytes reads the Go runtime's cumulative heap allocation
// counter.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCycles reads the runtime's completed GC cycle count.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMiB reports the process's resident-set high-water mark
// (VmHWM), or 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
