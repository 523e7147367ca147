// Package mxoe is the public API of the native Myrinet Express over
// Ethernet stack — the paper's baseline. It implements the same
// transport interface as package openmx, so benchmarks and MPI run
// unchanged over either stack, and it is wire-compatible with Open-MX
// (the two interoperate over one link, as Open-MX was designed to do).
package mxoe

import (
	"omxsim/cluster"
	"omxsim/internal/cpu"
	"omxsim/internal/hostmem"
	"omxsim/internal/mxlib"
	"omxsim/internal/mxoe"
	"omxsim/openmx"
	"omxsim/sim"
)

// Config selects native-stack options.
type Config struct {
	// RegCache enables the registration cache (more valuable here
	// than in Open-MX: MX registration updates NIC translation
	// tables).
	RegCache bool
	// RegCacheEntries bounds the registration cache to this many
	// resident regions (LRU eviction deregisters the coldest past the
	// bound); 0 keeps it unbounded.
	RegCacheEntries int
	// DCATargetCore, on a platform with HasDCA (e.g.
	// platform.ClovertownDCA), steers the firmware's DMA deposits at
	// this core's LLC. 0 (the default) targets each receiving
	// endpoint's own core. Ignored without HasDCA.
	DCATargetCore int
	// RetransmitTimeout is the firmware's base retransmission
	// timeout (default 50 ms); RetransmitBackoff multiplies it per
	// consecutive unanswered attempt (default 2), capped at
	// RetransmitMax (default 16× the timeout). All firmware-level:
	// retransmission costs the host no CPU.
	RetransmitTimeout sim.Duration
	RetransmitBackoff float64
	RetransmitMax     sim.Duration
	// Adaptive enables the firmware's self-tuning transport tier:
	// retransmission timeouts derived from per-peer SRTT/RTTVAR
	// (unless RetransmitTimeout is set explicitly) and an AIMD pull
	// window bounded by [2, 4 x NICs] instead of the fixed two blocks
	// per lane. Off (the default) keeps the static firmware behavior
	// bit-identical.
	Adaptive bool
}

// Stats re-exports the firmware protocol counters.
type Stats = mxoe.Stats

// CollStats re-exports the per-stack firmware-collective counters
// (descriptors posted per operation, tree frames, hop acks,
// retransmissions, duplicate suppression, combined reduction bytes).
type CollStats = mxoe.CollStats

// CollMaxBytes is the largest payload the firmware accepts per
// offloaded collective; larger payloads stay on the host algorithms.
const CollMaxBytes = mxoe.CollMaxBytes

// Stack is a native MXoE instance attached to a host (its NIC runs in
// firmware mode: no interrupts, no bottom halves).
type Stack struct {
	h *cluster.Host
	s *mxoe.Stack
}

// Attach builds the native stack on a host.
func Attach(h *cluster.Host, cfg Config) *Stack {
	return &Stack{h: h, s: mxoe.Attach(h.Machine(), mxoe.Config{
		RegCache:          cfg.RegCache,
		RegCacheEntries:   cfg.RegCacheEntries,
		DCATargetCore:     cfg.DCATargetCore,
		RetransmitTimeout: cfg.RetransmitTimeout,
		RetransmitBackoff: cfg.RetransmitBackoff,
		RetransmitMax:     cfg.RetransmitMax,
		Adaptive:          cfg.Adaptive,
	})}
}

// Stats exposes the firmware's protocol counters (retransmissions,
// duplicate suppression, queue drops, per-NIC transmit counts on
// multi-NIC hosts) for tests and diagnostics. The firmware stripes
// eager fragments and pull blocks round-robin across an aggregated
// link's NICs (cluster.MultiNIC) with two pull blocks in flight per
// NIC; NICTxFrames reports the resulting balance.
func (s *Stack) Stats() Stats { return s.s.Stats }

// RegStats snapshots the stack's registration-cache counters (zero
// value when Config.RegCache is off).
func (s *Stack) RegStats() hostmem.RegStats { return s.s.RegStats() }

// CPUStats re-exports the deterministic per-core CPU ledger snapshot
// (see openmx.CPUStats). Native MX leaves the receive path to NIC
// firmware, so its snapshots show essentially only user-library and
// application-compute time — the baseline the paper's availability
// argument is measured against.
type CPUStats = openmx.CPUStats

// CPUCategory labels one busy-time ledger (see CPUCategories).
type CPUCategory = cpu.Category

// The accounting categories, mirrored here so mxoe-only consumers
// can interpret CPUStats without importing openmx.
const (
	CPUUserLib    = cpu.UserLib
	CPUDriver     = cpu.DriverCmd
	CPUBHProc     = cpu.BHProc
	CPUBHCopy     = cpu.BHCopy
	CPUIOATSubmit = cpu.IOATSubmit
	CPUAppCompute = cpu.AppCompute
	CPUOther      = cpu.Other
)

// CPUCategories returns every accounting category in ledger order.
func CPUCategories() []CPUCategory { return cpu.Categories() }

// CPUStats snapshots the host's CPU accounting since the last
// ResetCPUStats (or the start of the run).
func (s *Stack) CPUStats() CPUStats { return s.s.H.Sys.Snapshot() }

// ResetCPUStats zeroes the host's CPU ledgers and starts a new
// accounting window.
func (s *Stack) ResetCPUStats() { s.s.H.Sys.ResetAccounting() }

// HostName implements openmx.Transport.
func (s *Stack) HostName() string { return s.h.Name }

// Inner exposes the internal firmware stack for in-module tooling
// (trace capture); external callers should treat it as opaque.
func (s *Stack) Inner() *mxoe.Stack { return s.s }

// Open creates endpoint id bound to the given core.
func (s *Stack) Open(id, coreID int) openmx.Endpoint {
	return endpoint{s.s.OpenEndpoint(id, coreID)}
}

// endpoint adapts a firmware endpoint to openmx.Endpoint and
// openmx.CollCapable: its requests satisfy openmx.Request as they
// are, only buffers and request handles convert.
type endpoint struct{ *mxoe.Endpoint }

func (e endpoint) ISend(p *sim.Proc, dst openmx.Addr, match uint64, buf *cluster.Buffer, off, n int) openmx.Request {
	return e.Endpoint.ISend(p, dst, match, buf.Raw(), off, n)
}

func (e endpoint) IRecv(p *sim.Proc, match, mask uint64, buf *cluster.Buffer, off, n int) openmx.Request {
	return e.Endpoint.IRecv(p, match, mask, buf.Raw(), off, n)
}

func (e endpoint) Wait(p *sim.Proc, r openmx.Request) { e.Endpoint.Wait(p, r.(*mxlib.Request)) }

func (e endpoint) Test(p *sim.Proc, r openmx.Request) bool {
	return e.Endpoint.Test(p, r.(*mxlib.Request))
}

// CollJoin implements openmx.CollCapable: it registers this
// endpoint's membership in the collective group defined by members
// (every rank's endpoint address, in rank order) and returns the
// descriptor-post API backed by the NIC's firmware state machines.
func (e endpoint) CollJoin(members []openmx.Addr) openmx.CollGroup {
	return collGroup{g: e.Endpoint.CollJoin(members)}
}

// CollMaxBytes implements openmx.CollCapable.
func (e endpoint) CollMaxBytes() int { return mxoe.CollMaxBytes }

type collGroup struct {
	g *mxoe.CollGroup
}

func (g collGroup) Size() int { return g.g.Size() }
func (g collGroup) Rank() int { return g.g.Rank() }

func (g collGroup) PostBarrier(p *sim.Proc) openmx.Request {
	return g.g.PostBarrier(p)
}

func (g collGroup) PostBcast(p *sim.Proc, root int, buf *cluster.Buffer, off, n int) openmx.Request {
	return g.g.PostBcast(p, root, buf.Raw(), off, n)
}

func (g collGroup) PostAllreduce(p *sim.Proc, sbuf, rbuf *cluster.Buffer, n int) openmx.Request {
	return g.g.PostAllreduce(p, sbuf.Raw(), rbuf.Raw(), n)
}

func (g collGroup) PostScan(p *sim.Proc, sbuf, rbuf *cluster.Buffer, n int) openmx.Request {
	return g.g.PostScan(p, sbuf.Raw(), rbuf.Raw(), n)
}
