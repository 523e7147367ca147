package hostmem

import "omxsim/sim"

// RegCache is a per-host registration cache: regions pinned for a
// transfer stay registered afterwards and later posts to the same
// buffer reuse the registration for free, amortizing the per-page pin
// cost the way Open-MX's (and Ibdxnet-style RDMA stacks')
// registration caches do. An optional LRU bound caps how many regions
// stay resident: acquiring a new region past the bound evicts the
// least-recently-used one, whose deregistration cost the acquiring
// post pays.
//
// The cache holds one pin reference per resident region (taken via
// Buffer.Pin at first acquire, released via Buffer.Unpin at
// eviction), so cached buffers stay pinned exactly as the real
// deferred-deregistration scheme keeps them; each transfer holds its
// own reference besides (PinCost to UnpinCost). A registration lives
// until its LRU eviction or until its buffer is freed
// (Memory.Release), which drops it from every cache at no simulated
// cost — Open-MX's invalidate-on-free — so a cache only ever holds
// live buffers.
type RegCache struct {
	max      int // maximum resident regions; 0 = unbounded
	resident int
	// LRU list, most recent at the head. Sentinel-free doubly linked
	// list; head/tail are nil when the cache is empty.
	head, tail *regEntry

	stats RegStats
}

// regEntry is one cached registration. It sits on two lists: its
// cache's LRU list (prev/next) and its buffer's list of registrations
// (bufNext, headed by Buffer.regs), which is how a cache finds a
// buffer's entry and how Release finds every cache holding a buffer,
// with no map and no allocation beyond the entry itself.
type regEntry struct {
	rc         *RegCache
	buf        *Buffer
	pages      int64
	prev, next *regEntry
	bufNext    *regEntry
}

// RegStats is a deterministic snapshot of registration-cache
// activity, in the style of the CPU ledger snapshots: counters since
// the cache was created.
type RegStats struct {
	// Hits and Misses count Acquire calls that found, respectively
	// did not find, the buffer resident; they sum to the number of
	// posts that consulted the cache.
	Hits, Misses int64
	// Evictions counts regions deregistered to honour the LRU bound
	// (a registration dropped because its buffer was freed is not one).
	Evictions int64
	// Resident is the number of currently cached regions;
	// PinnedPages the pages they keep pinned.
	Resident    int
	PinnedPages int64
}

// NewRegCache returns a registration cache bounded to maxEntries
// resident regions (0 = unbounded, classic Open-MX behaviour).
func NewRegCache(maxEntries int) *RegCache {
	return &RegCache{max: maxEntries}
}

// entry returns rc's registration of buf, or nil.
func (rc *RegCache) entry(buf *Buffer) *regEntry {
	for e := buf.regs; e != nil; e = e.bufNext {
		if e.rc == rc {
			return e
		}
	}
	return nil
}

// Acquire registers the n-byte region of buf if it is not already
// resident and reports the page counts the posting CPU must be
// charged for: pinPages is the pages pinned by a miss (0 on a hit),
// unpinPages the pages deregistered by any LRU eviction this
// acquisition forced. The pin cost is therefore paid exactly once per
// residency of a region, on the post that faulted it in.
func (rc *RegCache) Acquire(buf *Buffer, n int) (pinPages, unpinPages int64) {
	if e := rc.entry(buf); e != nil {
		rc.stats.Hits++
		rc.moveToFront(e)
		return 0, 0
	}
	rc.stats.Misses++
	buf.Pin()
	pages := pagesSpanned(buf, n)
	e := &regEntry{rc: rc, buf: buf, pages: pages, bufNext: buf.regs}
	buf.regs = e
	rc.resident++
	rc.pushFront(e)
	rc.stats.PinnedPages += pages
	for rc.max > 0 && rc.resident > rc.max {
		pages := rc.tail.pages
		rc.drop(rc.tail)
		rc.stats.Evictions++
		unpinPages += pages
	}
	return pages, unpinPages
}

// PinCost registers the n-byte region of buf for a transfer and
// returns the time the posting CPU is charged, at the caller's
// per-page costs (each stack pays its own pin price). Through a cache
// (rc non-nil) a hit costs nothing and a miss pays pinPerPage over the
// region plus unpinPerPage over any region the LRU bound evicted;
// without one (rc nil) every post pins afresh. Either way the transfer
// takes a pin reference of its own, held until UnpinCost, besides the
// one a cache entry holds: a pin beyond its registrations is what
// tells Memory.Release that a transfer still uses the pages.
func (rc *RegCache) PinCost(buf *Buffer, n int, pinPerPage, unpinPerPage int64) sim.Duration {
	buf.Pin()
	if rc != nil {
		pinned, evicted := rc.Acquire(buf, n)
		return sim.Duration(pinned*pinPerPage + evicted*unpinPerPage)
	}
	return sim.Duration(pagesSpanned(buf, n) * pinPerPage)
}

// UnpinCost drops the transfer's pin reference once it completed and
// returns its deregistration time: zero through a cache, whose entry
// keeps the region registered until eviction or free, unpinPerPage
// over the region otherwise.
func (rc *RegCache) UnpinCost(buf *Buffer, n int, unpinPerPage int64) sim.Duration {
	buf.Unpin()
	if rc != nil {
		return 0
	}
	return sim.Duration(pagesSpanned(buf, n) * unpinPerPage)
}

// pagesSpanned is the page count of an n-byte region of buf — what a
// driver actually pins, not the whole buffer (at least one page).
func pagesSpanned(buf *Buffer, n int) int64 {
	ps := buf.Mem.P.PageSize
	return int64((max(n, 1) + ps - 1) / ps)
}

// drop deregisters e — an LRU eviction or its buffer's release —
// unlinking it from both of its lists and returning its pin.
func (rc *RegCache) drop(e *regEntry) {
	rc.unlink(e)
	link := &e.buf.regs
	for *link != e {
		link = &(*link).bufNext
	}
	*link = e.bufNext
	e.bufNext = nil
	e.buf.Unpin()
	rc.resident--
	rc.stats.PinnedPages -= e.pages
}

// Resident reports whether the buffer currently holds a cached
// registration.
func (rc *RegCache) Resident(buf *Buffer) bool { return rc.entry(buf) != nil }

// Stats snapshots the cache counters.
func (rc *RegCache) Stats() RegStats {
	st := rc.stats
	st.Resident = rc.resident
	return st
}

func (rc *RegCache) pushFront(e *regEntry) {
	e.prev, e.next = nil, rc.head
	if rc.head != nil {
		rc.head.prev = e
	}
	rc.head = e
	if rc.tail == nil {
		rc.tail = e
	}
}

func (rc *RegCache) unlink(e *regEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		rc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		rc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (rc *RegCache) moveToFront(e *regEntry) {
	if rc.head == e {
		return
	}
	rc.unlink(e)
	rc.pushFront(e)
}
