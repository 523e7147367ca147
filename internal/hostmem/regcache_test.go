package hostmem

import (
	"fmt"
	"testing"

	"omxsim/platform"
)

// Table-driven churn over caches of various bounds: the LRU bound is
// honoured, hits+misses sum to the posts, and the pin cost (a Pin
// call plus reported pinPages) is charged exactly once per residency
// of a region.
func TestRegCacheChurn(t *testing.T) {
	cases := []struct {
		name    string
		max     int
		bufs    int   // distinct regions
		posts   []int // sequence of region indices to Acquire
		hits    int64
		misses  int64
		evicted int64
	}{
		{
			name: "unbounded-repeat", max: 0, bufs: 2,
			posts: []int{0, 1, 0, 1, 0, 1},
			hits:  4, misses: 2, evicted: 0,
		},
		{
			name: "bound-fits", max: 2, bufs: 2,
			posts: []int{0, 1, 0, 1},
			hits:  2, misses: 2, evicted: 0,
		},
		{
			// Round-robin over 3 regions with room for 2: every post
			// misses (the LRU victim is always the one about to be
			// reused) and every miss past the second evicts.
			name: "thrash", max: 2, bufs: 3,
			posts: []int{0, 1, 2, 0, 1, 2},
			hits:  0, misses: 6, evicted: 4,
		},
		{
			// LRU order: re-touching 0 protects it; 1 is the victim.
			name: "lru-order", max: 2, bufs: 3,
			posts: []int{0, 1, 0, 2, 0},
			hits:  2, misses: 3, evicted: 1,
		},
		{
			name: "bound-one", max: 1, bufs: 2,
			posts: []int{0, 0, 1, 1, 0},
			hits:  2, misses: 3, evicted: 2,
		},
	}
	p := platform.Clovertown()
	const regBytes = 3 * 4096 // 3 pages each
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(p)
			rc := NewRegCache(tc.max)
			bufs := make([]*Buffer, tc.bufs)
			for i := range bufs {
				bufs[i] = m.Alloc(regBytes)
			}
			var pinned, unpinned int64
			for _, i := range tc.posts {
				pp, up := rc.Acquire(bufs[i], regBytes)
				pinned += pp
				unpinned += up
			}
			st := rc.Stats()
			if st.Hits != tc.hits || st.Misses != tc.misses || st.Evictions != tc.evicted {
				t.Fatalf("hits/misses/evictions = %d/%d/%d, want %d/%d/%d",
					st.Hits, st.Misses, st.Evictions, tc.hits, tc.misses, tc.evicted)
			}
			if st.Hits+st.Misses != int64(len(tc.posts)) {
				t.Fatalf("hits+misses = %d, want the %d posts", st.Hits+st.Misses, len(tc.posts))
			}
			// Pin cost charged exactly once per residency: pages flow
			// in on misses and out on evictions, never twice.
			if pinned != st.Misses*3 || unpinned != st.Evictions*3 {
				t.Fatalf("pinned/unpinned pages = %d/%d, want %d/%d",
					pinned, unpinned, st.Misses*3, st.Evictions*3)
			}
			if tc.max > 0 && st.Resident > tc.max {
				t.Fatalf("resident = %d exceeds bound %d", st.Resident, tc.max)
			}
			if st.PinnedPages != int64(st.Resident)*3 {
				t.Fatalf("PinnedPages = %d, want %d", st.PinnedPages, int64(st.Resident)*3)
			}
			// The hostmem pin refcount agrees: exactly the resident
			// regions hold a reference.
			livePins := 0
			for _, b := range bufs {
				if b.Pinned() {
					livePins++
					if !rc.Resident(b) {
						t.Fatal("pinned buffer not resident in the cache")
					}
				} else if rc.Resident(b) {
					t.Fatal("resident buffer lost its pin")
				}
			}
			if livePins != st.Resident {
				t.Fatalf("live pins = %d, resident = %d", livePins, st.Resident)
			}
		})
	}
}

// Acquire of a sub-page region pins one page; the pages recorded at
// miss time are the pages released at eviction, even if a later
// Acquire of the same buffer uses a different length.
func TestRegCachePageAccounting(t *testing.T) {
	p := platform.Clovertown()
	m := New(p)
	rc := NewRegCache(1)
	a, b := m.Alloc(64*1024), m.Alloc(64*1024)
	if pp, _ := rc.Acquire(a, 100); pp != 1 {
		t.Fatalf("sub-page pin = %d pages, want 1", pp)
	}
	// Hit with a larger span: no re-pin (the model registers whole
	// regions, as the deferred-deregistration scheme does).
	if pp, _ := rc.Acquire(a, 64*1024); pp != 0 {
		t.Fatalf("hit repinned %d pages", pp)
	}
	// Evicting a releases the 1 page recorded at its miss.
	if _, up := rc.Acquire(b, 8192); up != 1 {
		t.Fatalf("eviction released %d pages, want 1", up)
	}
	if st := rc.Stats(); st.PinnedPages != 2 || st.Resident != 1 {
		t.Fatalf("PinnedPages/Resident = %d/%d, want 2/1", st.PinnedPages, st.Resident)
	}
}

// Freeing a registered buffer invalidates its registration, as
// Open-MX does on free: the entry, its pin and its pages leave the
// cache, and the hit and miss counts (what the simulated pin costs
// follow) do not move.
func TestReleaseInvalidatesRegistration(t *testing.T) {
	p := platform.Clovertown()
	m := New(p)
	rc := NewRegCache(0)
	keep, b := m.Alloc(2*4096), m.Alloc(3*4096)
	rc.Acquire(keep, 2*4096)
	rc.Acquire(b, 3*4096)
	rc.Acquire(b, 3*4096)
	before := rc.Stats()
	m.Release(b)
	st := rc.Stats()
	if rc.Resident(b) || b.Pinned() {
		t.Fatalf("released buffer: resident %v, pinned %v", rc.Resident(b), b.Pinned())
	}
	if st.Resident != 1 || st.PinnedPages != 2 {
		t.Fatalf("Resident/PinnedPages = %d/%d, want 1/2", st.Resident, st.PinnedPages)
	}
	if st.Hits != before.Hits || st.Misses != before.Misses || st.Evictions != 0 {
		t.Fatalf("hits/misses/evictions %d/%d/%d, want %d/%d/0",
			st.Hits, st.Misses, st.Evictions, before.Hits, before.Misses)
	}
	// The same-size allocation that reuses the backing is a new
	// buffer: its first post misses and pays the pin again.
	again := m.Alloc(3 * 4096)
	if pp, _ := rc.Acquire(again, 3*4096); pp != 3 {
		t.Fatalf("post on the reallocated buffer pinned %d pages, want a 3-page miss", pp)
	}
	if !rc.Resident(keep) || !keep.Pinned() {
		t.Fatal("releasing one buffer dropped another's registration")
	}
}

// A buffer registered with two caches (two stacks on one host) is
// dropped from both, each returning its own pin.
func TestReleaseInvalidatesEveryCache(t *testing.T) {
	p := platform.Clovertown()
	m := New(p)
	rc1, rc2 := NewRegCache(0), NewRegCache(4)
	b := m.Alloc(4096)
	rc1.Acquire(b, 4096)
	rc2.Acquire(b, 4096)
	if b.pinRef != 2 {
		t.Fatalf("two registrations hold %d pins, want 2", b.pinRef)
	}
	m.Release(b)
	for i, rc := range []*RegCache{rc1, rc2} {
		if st := rc.Stats(); st.Resident != 0 || st.PinnedPages != 0 || rc.Resident(b) {
			t.Fatalf("cache %d after release: %+v, resident %v", i+1, st, rc.Resident(b))
		}
	}
	if b.Pinned() {
		t.Fatal("released buffer still pinned")
	}
}

// Invalidating the head, the middle or the tail of a bounded cache's
// LRU list leaves the rest in order: the evictions that follow take
// the survivors oldest first, and no buffer is unpinned twice (Unpin
// panics on underflow).
func TestInvalidationKeepsLRUOrder(t *testing.T) {
	for _, drop := range []int{0, 1, 2} { // oldest (tail), middle, newest (head)
		t.Run(fmt.Sprint(drop), func(t *testing.T) {
			p := platform.Clovertown()
			m := New(p)
			rc := NewRegCache(3)
			bufs := []*Buffer{m.Alloc(4096), m.Alloc(4096), m.Alloc(4096)}
			for _, b := range bufs {
				rc.Acquire(b, 4096)
			}
			m.Release(bufs[drop])
			var survivors []*Buffer
			for i, b := range bufs {
				if i != drop {
					survivors = append(survivors, b)
				}
			}
			// One post fits in the freed slot; each later one evicts
			// the oldest survivor.
			rc.Acquire(m.Alloc(4096), 4096)
			for i, want := range survivors {
				if _, up := rc.Acquire(m.Alloc(4096), 4096); up != 1 {
					t.Fatalf("post %d evicted %d pages, want 1", i, up)
				}
				if rc.Resident(want) || want.Pinned() {
					t.Fatalf("post %d did not evict survivor %d (the oldest)", i, i)
				}
				for _, later := range survivors[i+1:] {
					if !rc.Resident(later) || !later.Pinned() {
						t.Fatalf("post %d evicted a newer survivor", i)
					}
				}
			}
			if st := rc.Stats(); st.Resident != 3 || st.PinnedPages != 3 || st.Evictions != 2 {
				t.Fatalf("stats %+v, want 3 resident, 3 pages, 2 evictions", st)
			}
		})
	}
}

// A buffer that a transfer still pins cannot be freed even when a
// cache holds it too: a transfer posted through the cache (PinCost)
// holds a pin of its own, so Release panics and leaves the
// registration in place, on the posting miss and on a later hit
// alike. Once the transfer completes (UnpinCost), Release drops it.
func TestReleasePinnedByTransferKeepsRegistration(t *testing.T) {
	p := platform.Clovertown()
	m := New(p)
	rc := NewRegCache(0)
	b := m.Alloc(2 * 4096)
	rc.PinCost(b, 2*4096, 1, 1) // a transfer that misses and completes
	rc.UnpinCost(b, 2*4096, 1)
	rc.PinCost(b, 2*4096, 1, 1) // an in-flight transfer that hits
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("release of a transfer-pinned, cached buffer did not panic")
			}
		}()
		m.Release(b)
	}()
	if st := rc.Stats(); st.Resident != 1 || st.PinnedPages != 2 || !rc.Resident(b) || b.Data == nil {
		t.Fatalf("failed release changed state: %+v, resident %v, data %v", st, rc.Resident(b), b.Data != nil)
	}
	if d := rc.UnpinCost(b, 2*4096, 1); d != 0 {
		t.Fatalf("cached transfer charged %v to unpin, want 0", d)
	}
	m.Release(b)
	if st := rc.Stats(); st.Resident != 0 || st.PinnedPages != 0 || b.Pinned() {
		t.Fatalf("after the transfer unpinned: %+v, pinned %v", st, b.Pinned())
	}
}
