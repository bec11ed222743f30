package core

import (
	"sync"

	"stopss/internal/message"
	"stopss/internal/semantic"
)

// DefaultExpansionCacheSize is the expansion LRU capacity engines use
// unless WithExpansionCache overrides it.
const DefaultExpansionCacheSize = 1024

// ExpansionCache is a bounded LRU of semantic-expansion results keyed on
// the event's signature (its canonical pair multiset). Workloads repeat
// event shapes constantly — the same stock symbol, the same sensor tuple
// — and for a fixed stage snapshot the expansion of a shape is
// deterministic, so repeated shapes can skip semantic.Stage entirely.
//
// Entries remember the raw terms (attributes and string values) of the
// original event. A synonym delta invalidates exactly the entries whose
// terms intersect the delta's changed-term set — the same raw-term
// argument that drives subscription re-indexing (message.Subscription.
// TouchesTerms): an event whose expansion a synonym change could alter
// mentions a changed term as written. Hierarchy and mapping deltas
// restructure the expansion stages themselves and flush the whole cache.
//
// The cache is safe for concurrent use: Engine.Stats snapshots its
// counters without holding the engine lock.
type ExpansionCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*expEntry
	head    *expEntry // most recently used
	tail    *expEntry // least recently used

	hits        uint64
	misses      uint64
	evictions   uint64
	invalidated uint64
}

type expEntry struct {
	key        string
	res        semantic.Result
	terms      []string
	prev, next *expEntry
}

// ExpansionCacheStats is a point-in-time snapshot of cache counters.
type ExpansionCacheStats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Invalidated uint64
	Size        int
	Capacity    int
}

// NewExpansionCache builds a cache holding at most capacity entries.
// Capacity <= 0 returns nil: a nil *ExpansionCache is a valid, always-
// missing cache, which is how engines disable memoization.
func NewExpansionCache(capacity int) *ExpansionCache {
	if capacity <= 0 {
		return nil
	}
	return &ExpansionCache{cap: capacity, entries: make(map[string]*expEntry, capacity)}
}

// Get returns the memoized expansion for the event signature, promoting
// the entry to most-recently-used.
func (c *ExpansionCache) Get(sig string) (semantic.Result, bool) {
	if c == nil {
		return semantic.Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	en, ok := c.entries[sig]
	if !ok {
		c.misses++
		return semantic.Result{}, false
	}
	c.hits++
	c.moveToFront(en)
	return en.res, true
}

// Put memoizes an expansion under the event signature, evicting the
// least-recently-used entry when full. terms are the raw terms of the
// original event (eventTerms); the slice is retained.
func (c *ExpansionCache) Put(sig string, res semantic.Result, terms []string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if en, ok := c.entries[sig]; ok {
		en.res, en.terms = res, terms
		c.moveToFront(en)
		return
	}
	if len(c.entries) >= c.cap {
		c.evict(c.tail)
		c.evictions++
	}
	en := &expEntry{key: sig, res: res, terms: terms}
	c.entries[sig] = en
	c.pushFront(en)
}

// InvalidateTerms drops every entry whose term set intersects the given
// changed-term set and reports how many were dropped.
func (c *ExpansionCache) InvalidateTerms(affected []string) int {
	if c == nil || len(affected) == 0 {
		return 0
	}
	set := make(map[string]bool, len(affected))
	for _, t := range affected {
		set[t] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for en := c.head; en != nil; {
		next := en.next
		for _, t := range en.terms {
			if set[t] {
				c.evict(en)
				n++
				break
			}
		}
		en = next
	}
	c.invalidated += uint64(n)
	return n
}

// Flush drops every entry (hierarchy/mapping delta, stage swap, config
// change).
func (c *ExpansionCache) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidated += uint64(len(c.entries))
	c.entries = make(map[string]*expEntry, c.cap)
	c.head, c.tail = nil, nil
}

// Stats snapshots the cache counters.
func (c *ExpansionCache) Stats() ExpansionCacheStats {
	if c == nil {
		return ExpansionCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ExpansionCacheStats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Invalidated: c.invalidated,
		Size: len(c.entries), Capacity: c.cap,
	}
}

// --- intrusive LRU list (head = MRU, tail = LRU) ---

func (c *ExpansionCache) pushFront(en *expEntry) {
	en.prev, en.next = nil, c.head
	if c.head != nil {
		c.head.prev = en
	}
	c.head = en
	if c.tail == nil {
		c.tail = en
	}
}

func (c *ExpansionCache) unlink(en *expEntry) {
	if en.prev != nil {
		en.prev.next = en.next
	} else {
		c.head = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else {
		c.tail = en.prev
	}
	en.prev, en.next = nil, nil
}

func (c *ExpansionCache) moveToFront(en *expEntry) {
	if c.head == en {
		return
	}
	c.unlink(en)
	c.pushFront(en)
}

func (c *ExpansionCache) evict(en *expEntry) {
	c.unlink(en)
	delete(c.entries, en.key)
}

// eventTerms collects the raw terms of an event — attribute names plus
// string values — for expansion-cache invalidation bookkeeping.
func eventTerms(ev message.Event) []string {
	terms := make([]string, 0, ev.Len())
	for _, p := range ev.Pairs() {
		terms = append(terms, p.Attr)
		if p.Val.Kind() == message.KindString {
			terms = append(terms, p.Val.Str())
		}
	}
	return terms
}
