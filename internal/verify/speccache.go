package verify

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"paramring/internal/core"
	"paramring/internal/dsl"
)

// CompiledSpec is one spec taken through the whole DSL front end exactly
// once: parsed, canonicalized, validated, and compiled down to the
// core.Protocol tables every engine consumes. Entries are shared between
// concurrent verifications — core.Protocol is immutable after construction
// (its accessors copy), so a CompiledSpec must be treated as read-only.
type CompiledSpec struct {
	// Name is the protocol name declared in the spec.
	Name string
	// Canonical is the dsl.Format rendering of the parsed spec: the
	// content address under which the entry is cached. It is a fixpoint of
	// the parser, so re-parsing Canonical reproduces this exact entry.
	Canonical string
	// Protocol is the compiled protocol, ready for the verify pipeline and
	// the explicit engine. Read-only.
	Protocol *core.Protocol
	// CompileNS is the wall-clock nanoseconds the cold parse + validate +
	// compile took when this entry was built. A cache hit re-serves the
	// entry without paying it again; the service layer exports the paid
	// cost as the lrserved_spec_compile_seconds histogram.
	CompileNS int64
}

// SpecCacheStats is a point-in-time view of a SpecCache's counters, the
// numbers lrserved surfaces on /healthz and /metrics
// (lrserved_spec_cache_hits_total / lrserved_spec_cache_misses_total).
type SpecCacheStats struct {
	// Hits counts Compile calls answered without running the DSL front
	// end (raw-text alias hits and canonical-key hits combined).
	Hits uint64 `json:"hits"`
	// Misses counts Compile calls that paid a full parse + compile.
	Misses uint64 `json:"misses"`
	// Entries is the current number of cached compiled specs.
	Entries int `json:"entries"`
	// Aliases is the current number of raw-text alias index entries. Each
	// cached spec owns at most aliasFactor aliases, and an entry's aliases
	// are evicted with it, so Aliases never exceeds aliasFactor * Entries.
	Aliases int `json:"aliases"`
}

// SpecCache memoizes the DSL front end: a size-bounded LRU of CompiledSpec
// entries keyed by the canonical dsl.Format rendering, with a raw-text
// alias index in front of it so byte-identical resubmissions skip even the
// parse. Two textual variants of one protocol — whitespace, comments,
// parenthesization — canonicalize identically and therefore share a single
// entry: the cache key can never fragment on formatting.
//
// The zero value is not usable; construct with NewSpecCache. All methods
// are safe for concurrent use.
type SpecCache struct {
	hits   atomic.Uint64
	misses atomic.Uint64

	mu    sync.Mutex
	max   int
	order *list.List               // front = most recently used
	items map[string]*list.Element // canonical rendering -> *specEntry

	// alias maps raw submission text to its canonical rendering so exact
	// resubmissions skip the parse as well as the compile. Each alias is
	// owned by the entry it points at: an entry holds at most aliasFactor
	// aliases (oldest dropped first — regenerating one costs a single
	// parse) and evicting the entry deletes its aliases with it, so the
	// index can never outgrow the LRU it fronts.
	alias map[string]string
}

type specEntry struct {
	key     string // canonical rendering, for eviction
	cs      *CompiledSpec
	aliases []string // raw-text aliases owned by this entry, oldest first
}

// aliasFactor bounds the raw-text aliases per cache entry, and therefore
// the whole alias index at aliasFactor * max.
const aliasFactor = 4

// SpecCacheAliasFactor exports aliasFactor: a caller that rotates through
// more textual variants of one spec than this misses the alias index on
// every Compile and pays a parse before the canonical lookup hits.
const SpecCacheAliasFactor = aliasFactor

// NewSpecCache returns a compiled-spec cache bounded to maxEntries
// (<= 0 selects 1024, matching the service's result-cache default).
func NewSpecCache(maxEntries int) *SpecCache {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	return &SpecCache{
		max:   maxEntries,
		order: list.New(),
		items: make(map[string]*list.Element),
		alias: make(map[string]string),
	}
}

// Compile returns the compiled form of src, from the cache when any
// textual variant of the same protocol has been compiled before. The
// second return reports a hit: true means the DSL compile (and, for exact
// resubmissions, the parse too) was skipped. Parse and compile errors are
// returned verbatim and never cached — error paths are cheap (they fail
// before table construction) and a negative cache would let one transient
// dialect quirk pin a rejection.
func (c *SpecCache) Compile(src string) (*CompiledSpec, bool, error) {
	// Fast path: a byte-identical submission seen before — either under a
	// recorded raw-text alias or because src already is a canonical
	// rendering (the main index key). Neither pays a parse.
	c.mu.Lock()
	lookup := src
	if canonical, ok := c.alias[src]; ok {
		lookup = canonical
	}
	if el, ok := c.items[lookup]; ok {
		c.order.MoveToFront(el)
		cs := el.Value.(*specEntry).cs
		c.mu.Unlock()
		c.hits.Add(1)
		return cs, true, nil
	}
	c.mu.Unlock()

	// Parse to canonicalize; textual variants converge here.
	t0 := time.Now()
	spec, err := dsl.ParseSpec(src)
	if err != nil {
		return nil, false, err
	}
	canonical := dsl.Format(spec)

	c.mu.Lock()
	if el, ok := c.items[canonical]; ok {
		c.order.MoveToFront(el)
		cs := el.Value.(*specEntry).cs
		c.noteAliasLocked(src, canonical)
		c.mu.Unlock()
		c.hits.Add(1)
		return cs, true, nil
	}
	c.mu.Unlock()

	// Cold path: pay the compile outside the lock (it validates windows,
	// domains and action tables — the expensive part of the front end).
	proto, err := spec.Protocol()
	if err != nil {
		return nil, false, err
	}
	cs := &CompiledSpec{
		Name:      spec.Name,
		Canonical: canonical,
		Protocol:  proto,
		CompileNS: time.Since(t0).Nanoseconds(),
	}

	c.mu.Lock()
	if el, ok := c.items[canonical]; ok {
		// A concurrent Compile of the same protocol won the race; keep its
		// entry so every caller shares one Protocol.
		c.order.MoveToFront(el)
		cs = el.Value.(*specEntry).cs
	} else {
		c.items[canonical] = c.order.PushFront(&specEntry{key: canonical, cs: cs})
		for c.order.Len() > c.max {
			last := c.order.Back()
			c.order.Remove(last)
			e := last.Value.(*specEntry)
			delete(c.items, e.key)
			for _, a := range e.aliases {
				delete(c.alias, a)
			}
		}
	}
	c.noteAliasLocked(src, canonical)
	c.mu.Unlock()
	c.misses.Add(1)
	return cs, false, nil
}

// noteAliasLocked records src as a raw-text alias of the entry cached
// under canonical. Identity aliases are skipped (the canonical text is
// already the primary key: a resubmission of it hits the canonical lookup
// after one cheap parse). The alias is owned by the entry: once an entry
// holds aliasFactor aliases the oldest is dropped to make room, so many
// formatting variants of one spec can never grow the index past the
// per-entry bound — and an entry that has been evicted (or was never
// inserted) records no alias at all.
func (c *SpecCache) noteAliasLocked(src, canonical string) {
	if src == canonical {
		return
	}
	if _, ok := c.alias[src]; ok {
		return
	}
	el, ok := c.items[canonical]
	if !ok {
		return
	}
	e := el.Value.(*specEntry)
	if len(e.aliases) >= aliasFactor {
		oldest := e.aliases[0]
		e.aliases = append(e.aliases[:0], e.aliases[1:]...)
		delete(c.alias, oldest)
	}
	e.aliases = append(e.aliases, src)
	c.alias[src] = canonical
}

// Len returns the number of cached compiled specs.
func (c *SpecCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a point-in-time counter snapshot.
func (c *SpecCache) Stats() SpecCacheStats {
	c.mu.Lock()
	entries, aliases := c.order.Len(), len(c.alias)
	c.mu.Unlock()
	return SpecCacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: entries,
		Aliases: aliases,
	}
}
