// Package hostmem models host memory: buffers that carry real payload
// bytes, page pinning state, and a cache-warmth tracker.
//
// Warmth is tracked with a streaming-LRU approximation: every L2 cache
// domain (and every core's L1) has a monotonically increasing byte
// clock advanced by each access. A buffer is warm in a cache if the
// traffic since its last touch, plus its own footprint, still fits in
// that cache. This one-line model reproduces the cache falloffs the
// paper observes (e.g. the shared-memory ping-pong of Fig. 10 drops off
// beyond 1 MiB messages: four buffers of that size stream through one
// 4 MiB L2).
package hostmem

import (
	"bytes"
	"fmt"

	"omxsim/platform"
)

// Memory is the physical memory and cache state of one host.
type Memory struct {
	P *platform.Platform

	nextAddr  int64
	l2Clocks  []int64 // per L2 domain
	l1Clocks  []int64 // per core
	allocated int64
	// spare holds the backings of released buffers, for the next
	// allocation of their size to reuse (see Release).
	spare Spares
}

// Spares keeps byte backings by exact length for reuse: Put files a
// backing, Get hands back the one of that length filed last. Lengths
// are exact (no size classes), so a Spares holds at most as many
// backings of each length as were ever out at once. Memory keeps one
// for released buffers; the MX firmware keeps one for its eager
// snapshots.
type Spares struct{ byLen map[int][][]byte }

// Get returns a filed backing of length n with its old contents, or
// nil when there is none.
func (s *Spares) Get(n int) []byte {
	free := s.byLen[n]
	if len(free) == 0 {
		return nil
	}
	b := free[len(free)-1]
	s.byLen[n] = free[:len(free)-1]
	return b
}

// Put files b for a later Get of its length. Empty backings are not
// kept. The caller must hold no other reference that writes to b.
func (s *Spares) Put(b []byte) {
	if len(b) == 0 {
		return
	}
	if s.byLen == nil {
		s.byLen = make(map[int][][]byte)
	}
	s.byLen[len(b)] = append(s.byLen[len(b)], b)
}

// New returns the memory system for a host described by p.
func New(p *platform.Platform) *Memory {
	return &Memory{
		P:        p,
		nextAddr: 0x1000,
		l2Clocks: make([]int64, p.L2Domains()),
		l1Clocks: make([]int64, p.NumCores()),
	}
}

// Allocated reports total bytes allocated so far.
func (m *Memory) Allocated() int64 { return m.allocated }

// Buffer is a contiguous, addressable region of host memory holding
// real bytes. Its logical size — what the model sees: addresses,
// pages, warmth, coverage — is fixed at allocation. Data is the real
// backing; it spans the whole logical size except for a Ring's
// buffer, whose backing is materialized slot by slot on first use
// (bytes beyond it read as zero), and it is nil once the buffer is
// Released. Buffers remember which core last
// touched them (for warmth and cross-socket decisions), how much of
// them the current warm episode actually covers, whether a device DMA
// produced their current contents (and how much of that deposit has
// been snooped back), any pending DCA push, their NUMA home socket,
// and their pin refcount.
type Buffer struct {
	Mem  *Memory
	Addr int64
	Data []byte

	size int // logical size; len(Data) <= size
	// pinRef and home are int32 so that Buffer, with regs, stays at
	// 160 bytes, one allocation size class: at 168 bytes every buffer
	// takes a 176-byte slot, which raises the allocation per simulated
	// byte of a large ping-pong measurably.
	pinRef int32
	home   int32 // NUMA home socket of the backing pages
	// regs lists the registration-cache entries that hold this buffer,
	// one per cache, each owning one of the pin references (see
	// RegCache). Release drops them.
	regs *regEntry

	lastCore    int   // -1 until first touch
	l1TouchMark int64 // core L1 clock at last touch
	l2TouchMark int64 // domain L2 clock at last touch
	// covL2 bounds, per L2 domain, how many bytes of the buffer that
	// domain's touches have covered; covL1 does the same for the last
	// touching core's L1 (reset when a different core takes over). A
	// 4 kiB fragment touch can therefore never make a whole multi-MB
	// buffer copy out warm, while repeated chunked touches accumulate
	// to full coverage.
	covL2 []int
	covL1 int

	dmaCold    bool // device-DMA'd lines not yet snooped remain
	dmaSnooped int  // bytes touched (snooped back) since the DMA write

	// DCA push state: dcaDom < 0 means no deposit is pending.
	dcaDom  int   // L2 domain the last device deposit was pushed into
	dcaLen  int   // bytes actually pushed (bounded by DCALLCBudget)
	dcaMark int64 // target domain's L2 clock at push time
}

// Alloc returns a new zeroed buffer of the given size, homed on the
// chipset's local socket (the default NUMA placement).
func (m *Memory) Alloc(size int) *Buffer {
	return m.AllocOn(size, m.P.DMAHomeSocket)
}

// AllocOn returns a new zeroed buffer of the given size homed on the
// given NUMA node (socket). Device DMA deposits into remote-socket
// buffers pay the platform's remote-DMA penalty.
func (m *Memory) AllocOn(size, socket int) *Buffer {
	return m.alloc(size, socket, size)
}

// alloc returns a buffer of the given logical size whose first
// backed bytes are materialized.
func (m *Memory) alloc(size, socket, backed int) *Buffer {
	if size < 0 {
		panic(fmt.Sprintf("hostmem: negative alloc %d", size))
	}
	if socket < 0 || socket >= m.P.Sockets {
		panic(fmt.Sprintf("hostmem: alloc on socket %d of %d", socket, m.P.Sockets))
	}
	var data []byte
	if backed == size {
		data = m.spare.Get(size)
	}
	if data != nil {
		clear(data)
	} else {
		data = make([]byte, backed)
	}
	b := &Buffer{
		Mem: m, Addr: m.nextAddr, Data: data, size: size,
		lastCore: -1, home: int32(socket), dcaDom: -1,
		covL2: make([]int, m.P.L2Domains()),
	}
	m.nextAddr += int64(size) + int64(m.P.PageSize) // pad to keep addresses distinct
	m.allocated += int64(size)
	return b
}

// Release ends b's life: its backing goes back to the memory, where
// the next allocation of the same size reuses it (zeroed, under a
// fresh Buffer with its own address, warmth and pin state), and
// b.Data becomes nil so that any later use of b's bytes panics.
//
// Freeing registered memory invalidates its registrations, as Open-MX
// does when the application frees a buffer: every registration cache
// holding b drops its entry and the pin that entry held, at no
// simulated cost (RegCache.Stats lowers Resident and PinnedPages;
// Hits, Misses and Evictions do not move). Any other pin means an
// in-flight transfer still holds the pages (a transfer pins from
// RegCache.PinCost to UnpinCost, through a cache too), and the next
// allocation must not be handed them: Release panics on it, as it
// does on a second release and on a partially backed (ring) buffer,
// and then leaves b and every cache untouched. The spare backings are
// bounded by the most buffers of each size ever live at once; they
// are freed with the Memory.
func (m *Memory) Release(b *Buffer) {
	cached := 0
	for e := b.regs; e != nil; e = e.bufNext {
		cached++
	}
	switch {
	case b.Data == nil:
		panic("hostmem: double release of buffer")
	case len(b.Data) != b.size:
		panic(fmt.Sprintf("hostmem: release of partially backed buffer (%d of %d bytes)", len(b.Data), b.size))
	case int(b.pinRef) > cached:
		panic(fmt.Sprintf("hostmem: release of buffer pinned by a transfer (%d pins, %d cached)", b.pinRef, cached))
	}
	for b.regs != nil {
		b.regs.rc.drop(b.regs)
	}
	m.spare.Put(b.Data)
	b.Data = nil
}

// HomeSocket reports the NUMA node the buffer's pages live on.
func (b *Buffer) HomeSocket() int { return int(b.home) }

// Size reports the buffer's logical length in bytes.
func (b *Buffer) Size() int { return b.size }

// materialize grows the backing to at least n bytes (n <= Size),
// keeping the bytes already written. Code holding the *Buffer (a
// queued I/OAT descriptor, a scheduled deposit) sees the new backing.
func (b *Buffer) materialize(n int) {
	if n > len(b.Data) {
		b.Data = append(b.Data, make([]byte, n-len(b.Data))...)
	}
}

// Pages reports the number of pages the buffer spans (for pin costs).
func (b *Buffer) Pages() int {
	ps := b.Mem.P.PageSize
	return (b.size + ps - 1) / ps
}

// Pin increments the pin refcount and reports whether this call
// actually pinned the pages (refcount went 0→1), i.e. whether the
// caller must pay the pinning cost.
func (b *Buffer) Pin() bool {
	b.pinRef++
	return b.pinRef == 1
}

// Unpin decrements the pin refcount. It panics on underflow.
func (b *Buffer) Unpin() {
	if b.pinRef == 0 {
		panic("hostmem: unpin of unpinned buffer")
	}
	b.pinRef--
}

// Pinned reports whether the buffer is currently pinned.
func (b *Buffer) Pinned() bool { return b.pinRef > 0 }

// Touch records an access of n bytes by the given core, updating the
// warmth clocks. Use n = the bytes actually read or written: warmth
// coverage extends only over the touched bytes (a domain's touches
// accumulate), and a pending device-DMA deposit is snooped back only
// up to n — a partial read leaves the untouched remainder carrying
// the snoop penalty.
func (b *Buffer) Touch(core int, n int) {
	m := b.Mem
	dom := m.P.L2DomainOf(core)
	m.l2Clocks[dom] += int64(n)
	m.l1Clocks[core] += int64(n)
	span := min(n, b.size)
	b.covL2[dom] = min(b.size, b.covL2[dom]+span)
	if b.lastCore == core {
		b.covL1 = min(b.size, b.covL1+span)
	} else {
		b.covL1 = span
	}
	b.lastCore = core
	b.l2TouchMark = m.l2Clocks[dom]
	b.l1TouchMark = m.l1Clocks[core]
	if b.dmaCold {
		b.dmaSnooped += n
		if b.dmaSnooped >= b.size {
			b.dmaCold = false
			b.dmaSnooped = 0
		}
	}
	b.dcaDom = -1 // pushed lines, once read, are ordinary warmth
}

// WrittenByDMA marks the buffer's contents as produced by device DMA:
// cold to every cache and carrying the snoop penalty on first read.
func (b *Buffer) WrittenByDMA() {
	b.lastCore = -1
	b.clearCoverage()
	b.dmaCold = true
	b.dmaSnooped = 0
	b.dcaDom = -1
}

// clearCoverage forgets all warm-span coverage (the buffer's cached
// lines were invalidated by a device write).
func (b *Buffer) clearCoverage() {
	for i := range b.covL2 {
		b.covL2[i] = 0
	}
	b.covL1 = 0
}

// WrittenByDCA marks a device deposit of n bytes steered by Direct
// Cache Access toward the given core: up to the platform's LLC budget
// of the deposit is pushed directly into that core's L2 domain
// (displacing other lines there — the push advances the domain's
// traffic clock), and no snoop penalty is owed by a consumer in that
// domain. Callers gate on Platform.HasDCA.
func (b *Buffer) WrittenByDCA(targetCore, n int) {
	m := b.Mem
	dom := m.P.L2DomainOf(targetCore)
	push := min(n, b.size)
	if budget := int(m.P.DCALLCBudget); budget > 0 && push > budget {
		push = budget
	}
	m.l2Clocks[dom] += int64(push)
	b.lastCore = -1
	b.clearCoverage()
	b.dmaCold = false
	b.dmaSnooped = 0
	b.dcaDom = dom
	b.dcaLen = push
	b.dcaMark = m.l2Clocks[dom]
}

// DMACold reports whether any device-DMA'd lines remain unsnooped.
func (b *Buffer) DMACold() bool { return b.dmaCold }

// DMAColdFor reports whether a copy of n bytes out of the buffer
// would still hit unsnooped device-written lines: true while cold
// bytes remain and the copy reaches beyond the bytes already read
// back. A Touch covering only a prefix of a deposit therefore does
// not launder the snoop penalty off the untouched remainder.
func (b *Buffer) DMAColdFor(n int) bool {
	return b.dmaCold && n > b.dmaSnooped
}

// DCADomain reports the L2 domain the last device deposit was pushed
// into by DCA, or -1 when no pushed deposit is pending.
func (b *Buffer) DCADomain() int { return b.dcaDom }

// DCALen reports the bytes of the pending deposit that were actually
// pushed into the target cache (bounded by the platform budget).
func (b *Buffer) DCALen() int {
	if b.dcaDom < 0 {
		return 0
	}
	return b.dcaLen
}

// DCAResident reports whether the pushed lines of a pending DCA
// deposit are still in the L2 domain reachable from the given core:
// the core must share the target domain and the traffic since the
// push, plus the pushed footprint, must still fit the cache.
func (b *Buffer) DCAResident(core int) bool {
	if b.dcaDom < 0 {
		return false
	}
	m := b.Mem
	if m.P.L2DomainOf(core) != b.dcaDom {
		return false
	}
	traffic := m.l2Clocks[b.dcaDom] - b.dcaMark
	return traffic+int64(b.dcaLen) <= m.P.L2Size
}

// DCAWrongSocket reports whether a pending DCA deposit's pushed lines
// sit dirty in a cache on a different socket than the given core —
// the consumer must snoop them out across the FSB, which is worse
// than never having pushed them at all. Evicted deposits (written
// back to memory) are no longer wrong-socket.
func (b *Buffer) DCAWrongSocket(core int) bool {
	if b.dcaDom < 0 {
		return false
	}
	m := b.Mem
	if m.P.SocketOfL2Domain(b.dcaDom) == m.P.SocketOf(core) {
		return false
	}
	traffic := m.l2Clocks[b.dcaDom] - b.dcaMark
	return traffic+int64(b.dcaLen) <= m.P.L2Size
}

// LastCore reports the core that last touched the buffer (-1 if none).
func (b *Buffer) LastCore() int { return b.lastCore }

// WarmLen reports how many bytes of the buffer the last touching
// core's L2 domain has covered; 0 when the buffer was never touched
// (or a device write cleared the coverage).
func (b *Buffer) WarmLen() int {
	if b.lastCore < 0 {
		return 0
	}
	return b.covL2[b.Mem.P.L2DomainOf(b.lastCore)]
}

// WarmL2 reports whether the buffer is still resident in the L2 cache
// reachable from the given core.
func (b *Buffer) WarmL2(core int) bool {
	if b.lastCore < 0 {
		return false
	}
	m := b.Mem
	if !m.P.SameL2(core, b.lastCore) {
		return false
	}
	dom := m.P.L2DomainOf(core)
	traffic := m.l2Clocks[dom] - b.l2TouchMark
	return traffic+int64(b.size) <= m.P.L2Size
}

// WarmSpanL2 reports whether a copy of n bytes out of the buffer can
// run at L2 speed from the given core: the buffer must be L2-resident
// there AND the domain's accumulated coverage must span at least n
// bytes.
func (b *Buffer) WarmSpanL2(core, n int) bool {
	return b.WarmL2(core) && n <= b.covL2[b.Mem.P.L2DomainOf(core)]
}

// WarmL1 reports whether the buffer is still resident in the given
// core's L1 cache.
func (b *Buffer) WarmL1(core int) bool {
	if b.lastCore != core {
		return false
	}
	m := b.Mem
	traffic := m.l1Clocks[core] - b.l1TouchMark
	return traffic+int64(b.size) <= m.P.L1Size
}

// WarmSpanL1 is WarmL1 with the same coverage bound as WarmSpanL2,
// against the last touching core's accumulated L1 coverage.
func (b *Buffer) WarmSpanL1(core, n int) bool {
	return b.WarmL1(core) && n <= b.covL1
}

// RemoteSocket reports whether the buffer's data was last touched by a
// core on a different socket than the given core (triggering FSB
// coherence traffic on Clovertown).
func (b *Buffer) RemoteSocket(core int) bool {
	if b.lastCore < 0 {
		return false
	}
	return !b.Mem.P.SameSocket(core, b.lastCore)
}

// Fill writes a deterministic pattern derived from seed over the
// buffer's whole logical size, materializing any unbacked tail (test
// and example helper; does not touch warmth clocks).
func (b *Buffer) Fill(seed byte) {
	b.materialize(b.size)
	for i := range b.Data {
		b.Data[i] = seed + byte(i*131)
	}
}

// Equal reports whether two buffers hold identical bytes over the
// same logical size (unbacked bytes read as zero).
func Equal(a, b *Buffer) bool {
	if a.size != b.size {
		return false
	}
	n := min(len(a.Data), len(b.Data))
	return bytes.Equal(a.Data[:n], b.Data[:n]) && zero(a.Data[n:]) && zero(b.Data[n:])
}

func zero(p []byte) bool {
	for _, c := range p {
		if c != 0 {
			return false
		}
	}
	return true
}
