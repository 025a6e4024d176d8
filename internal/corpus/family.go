// Package corpus shares Theorem 5.14 work across a protocol family: the
// protocols of one (domain, window, legitimacy) shape, such as the
// siblings of a protogen sweep. FamilyKey names the shape, and
// FamilyMemos hands every member of a family one skeleton LTG, which
// donates its s-arc RCG, and one verdict memo. Sharing never changes a
// verdict: the skeleton is only consulted when the shapes match exactly
// (ltg.LTG.SameShape), and memo verdicts are pure functions of the t-arc
// subset.
//
// No serving path uses it: its ablation on the service never paid
// (PERFORMANCE.md, "Per-family memo ablation"), so the service's workers
// verify through verify.CheckCtx alone. The package remains only because
// e2ebench's trace replay imports it, and it goes with the benchmark
// change of ROADMAP item 6.
package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"paramring/internal/core"
	"paramring/internal/ltg"
)

// FamilyKey identifies a protocol's shape: domain, read window, and the
// per-state legitimacy bitset. It captures exactly what ltg.LTG.SameShape
// compares, so two protocols with equal FamilyKeys can share a skeleton
// LTG and a Theorem 5.14 verdict memo, and two with different keys never
// will (the per-family skeleton handed out by FamilyMemos always passes
// the SameShape guard, which stays in place as defense in depth).
func FamilyKey(p *core.Protocol) string {
	lo, hi := p.Window()
	h := sha256.New()
	var buf [8]byte
	for _, v := range []int{p.Domain(), lo, hi} {
		binary.BigEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	n := p.NumLocalStates()
	bits := make([]byte, (n+7)/8)
	for s := 0; s < n; s++ {
		if p.Legitimate(core.LocalState(s)) {
			bits[s/8] |= 1 << (s % 8)
		}
	}
	h.Write(bits)
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// familyShared is the memo state one protocol family shares: the skeleton
// LTG donating its s-arc RCG, and the verdict memo. Both are safe for
// concurrent use (the skeleton is read-only after Build; ltg.Memo verdicts
// are pure functions of the key).
type familyShared struct {
	skel *ltg.LTG
	memo *ltg.Memo
}

// FamilyMemos is a bounded registry of per-family shared memo state. The
// bound is FIFO: batches are grouped by family, so by the time a family is
// evicted its members have almost certainly all been verified. All methods
// are safe for concurrent use.
type FamilyMemos struct {
	mu    sync.Mutex
	max   int
	order []string
	m     map[string]*familyShared
	// evictedHits / evictedMisses preserve the counters of evicted
	// families so Stats stays cumulative.
	evictedHits   uint64
	evictedMisses uint64
}

// NewFamilyMemos returns a registry bounded to max families (<= 0 selects
// 256).
func NewFamilyMemos(max int) *FamilyMemos {
	if max <= 0 {
		max = 256
	}
	return &FamilyMemos{max: max, m: map[string]*familyShared{}}
}

// CheckOptions returns base with the Skeleton and Memo of p's family
// filled in, creating the family's shared state on first sight. A base
// that already carries a skeleton is returned unchanged — the caller made
// its own sharing arrangement.
func (f *FamilyMemos) CheckOptions(p *core.Protocol, base ltg.CheckOptions) ltg.CheckOptions {
	if base.Skeleton != nil {
		return base
	}
	key := FamilyKey(p)
	f.mu.Lock()
	fs, ok := f.m[key]
	if !ok {
		fs = &familyShared{skel: ltg.Build(p.Compile()), memo: ltg.NewMemo()}
		f.m[key] = fs
		f.order = append(f.order, key)
		for len(f.order) > f.max {
			if old, ok := f.m[f.order[0]]; ok {
				h, m := old.memo.Stats()
				f.evictedHits += h
				f.evictedMisses += m
			}
			delete(f.m, f.order[0])
			f.order = f.order[1:]
		}
	}
	f.mu.Unlock()
	base.Skeleton = fs.skel
	base.Memo = fs.memo
	return base
}

// Stats aggregates memo hits and misses across all families, evicted ones
// included (the counters are cumulative).
func (f *FamilyMemos) Stats() (hits, misses uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	hits, misses = f.evictedHits, f.evictedMisses
	for _, fs := range f.m {
		h, m := fs.memo.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// Len returns the number of live families.
func (f *FamilyMemos) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}
