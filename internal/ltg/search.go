package ltg

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"paramring/internal/core"
)

// Memo caches Theorem 5.14 verdicts per canonical t-arc subset so that a
// synthesis search evaluating many candidate revisions of one base protocol
// never re-derives the verdict of a pseudo-livelock core two assignments
// share. The verdict of a subset depends only on the (source, target) state
// pairs of its arcs — trail existence never looks at action labels — so the
// key is the sorted, deduplicated set of (src, dst) codes. Witnesses are
// recomputed on a hit rather than cached: they are needed at most once per
// rejection, and rebuilding them from the caller's own subset keeps reported
// reasons independent of which worker populated the cache first.
//
// A Memo is safe for concurrent use. Verdicts are pure functions of the key,
// so racing writers can only store identical values.
type Memo struct {
	mu     sync.RWMutex
	m      map[string]subsetVerdict
	hits   atomic.Uint64
	misses atomic.Uint64
}

// subsetVerdict is the cached outcome for one canonical subset.
type subsetVerdict uint8

const (
	verdictAbsent      subsetVerdict = iota // zero value: not cached
	verdictNotPseudo                        // subset does not form a pseudo-livelock
	verdictPseudoOnly                       // pseudo-livelock, but no contiguous trail
	verdictPseudoTrail                      // pseudo-livelock with a contiguous trail
)

// NewMemo returns an empty verdict cache.
func NewMemo() *Memo {
	return &Memo{m: make(map[string]subsetVerdict)}
}

// Stats returns the number of cache hits and misses so far.
func (m *Memo) Stats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

func (m *Memo) lookup(key string) subsetVerdict {
	m.mu.RLock()
	v := m.m[key]
	m.mu.RUnlock()
	if v == verdictAbsent {
		m.misses.Add(1)
	} else {
		m.hits.Add(1)
	}
	return v
}

func (m *Memo) store(key string, v subsetVerdict) {
	m.mu.Lock()
	m.m[key] = v
	m.mu.Unlock()
}

// subsetKey canonicalizes a t-arc subset into a memo key: the ascending,
// deduplicated (src, dst) codes packed as big-endian uint64s. buf is a
// caller-owned scratch buffer reused across calls.
func (l *LTG) subsetKey(subset []core.LocalTransition, buf *[]byte) string {
	n := uint64(l.sys.N())
	codes := make([]uint64, 0, 16)
	for _, t := range subset {
		codes = append(codes, uint64(t.Src)*n+uint64(t.Dst))
	}
	// Insertion sort: subsets are tiny (bounded by CheckOptions.MaxTArcs).
	for i := 1; i < len(codes); i++ {
		for j := i; j > 0 && codes[j] < codes[j-1]; j-- {
			codes[j], codes[j-1] = codes[j-1], codes[j]
		}
	}
	b := (*buf)[:0]
	var last uint64
	for i, c := range codes {
		if i > 0 && c == last {
			continue
		}
		last = c
		b = binary.BigEndian.AppendUint64(b, c)
	}
	*buf = b
	return string(b)
}

// FindTrailSubset searches the non-empty subsets of tarcs, in ascending bitmask
// order (bit i selects tarcs[i]), for one that forms a pseudo-livelock and
// supports a contiguous trail through an illegitimate state — the rejection
// condition of Theorem 5.14. When mustInclude is a valid index, only subsets
// containing tarcs[mustInclude] are examined (still in ascending full-mask
// order); a negative mustInclude searches every non-empty subset.
//
// The t-arcs are an overlay: they need not equal l's compiled transitions, but
// must describe a protocol with the same shape (state space, legitimacy,
// own-values, and hence s-arcs) as l's system — the synthesis engine overlays
// candidate recovery arcs on the base protocol's LTG this way. The caller must
// keep len(tarcs) small enough for subset enumeration (CheckOptions.MaxTArcs
// bounds it upstream).
//
// Returns the witness of the first qualifying subset (nil if none) and the
// number of subsets examined. memo may be nil; the witness, iteration order
// and return values are identical with or without it.
func (l *LTG) FindTrailSubset(tarcs []core.LocalTransition, mustInclude int, memo *Memo) (*TrailWitness, int) {
	w, checked, _ := l.findTrailSubset(context.Background(), tarcs, mustInclude, memo)
	return w, checked
}

// pollEvery is how many subsets the exact search examines between two polls
// of its context: a subset holds at most CheckOptions.MaxTArcs t-arcs, so
// each one is cheap.
const pollEvery = 256

// findTrailSubset is FindTrailSubset that gives up with ctx's error once
// ctx is done.
func (l *LTG) findTrailSubset(ctx context.Context, tarcs []core.LocalTransition, mustInclude int, memo *Memo) (*TrailWitness, int, error) {
	checked := 0
	var buf []byte
	eval := func(mask int) *TrailWitness {
		subset := subsetOf(tarcs, mask)
		checked++
		if memo == nil {
			if !FormsPseudoLivelock(l.sys, subset) {
				return nil
			}
			return l.trailFor(subset)
		}
		key := l.subsetKey(subset, &buf)
		switch memo.lookup(key) {
		case verdictNotPseudo, verdictPseudoOnly:
			return nil
		case verdictPseudoTrail:
			// Rebuild the witness from this caller's subset (cheap, and
			// deterministic regardless of cache population order).
			return l.trailFor(subset)
		}
		v := verdictNotPseudo
		var w *TrailWitness
		if FormsPseudoLivelock(l.sys, subset) {
			if w = l.trailFor(subset); w != nil {
				v = verdictPseudoTrail
			} else {
				v = verdictPseudoOnly
			}
		}
		memo.store(key, v)
		return w
	}

	stopped := func() error {
		if checked%pollEvery != 0 {
			return nil
		}
		return ctx.Err()
	}
	if mustInclude < 0 {
		for mask := 1; mask < 1<<len(tarcs); mask++ {
			if err := stopped(); err != nil {
				return nil, checked, err
			}
			if w := eval(mask); w != nil {
				return w, checked, nil
			}
		}
		return nil, checked, nil
	}
	// Enumerate exactly the masks containing bit mustInclude by inserting that
	// bit into every (len-1)-bit pattern; the map sub -> mask is strictly
	// increasing, so iteration remains ascending in the full mask.
	for sub := 0; sub < 1<<(len(tarcs)-1); sub++ {
		low := sub & (1<<mustInclude - 1)
		high := sub >> mustInclude
		mask := high<<(mustInclude+1) | 1<<mustInclude | low
		if err := stopped(); err != nil {
			return nil, checked, err
		}
		if w := eval(mask); w != nil {
			return w, checked, nil
		}
	}
	return nil, checked, nil
}
