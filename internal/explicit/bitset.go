package explicit

import (
	"math/bits"
	"sync/atomic"
)

// The packed per-state bit table. Every whole-state-space structure the
// engine keeps resident — the I(K) membership cache, Tarjan's on-stack
// marks, the backward-BFS claim set — costs one bit per global state
// instead of the byte a []bool spends, which is what allows
// DefaultMaxStates to sit at 1<<28: the dominant resident table for a
// quarter-billion-state instance is 32 MiB, not 256 MiB. Word-level 64-bit
// operations keep the scans branch-cheap, and the atomic
// TestAndSet/GetAtomic pair serves the level-synchronous BFS claims of
// concurrent chunks without locks.
//
// Concurrency contract: Set/Clear/Get are plain word operations and must
// not race on the same 64-state word; the chunk partition (chunkFor) is
// word-aligned precisely so that per-chunk writers never share a word.
// TestAndSet/SetAtomic/GetAtomic are safe from any goroutine and mix
// safely with reads via GetAtomic.

// bitset is a packed bit-per-state table over global state codes.
type bitset []uint64

// bitsetWords returns the word count backing n bits.
func bitsetWords(n uint64) uint64 { return (n + 63) / 64 }

// newBitset returns an all-zero bitset able to hold n bits.
func newBitset(n uint64) bitset { return make(bitset, bitsetWords(n)) }

// Get reads bit id with a plain load. Safe concurrently with other reads
// and with writes to other words; use GetAtomic when racing TestAndSet on
// the same word.
func (b bitset) Get(id uint64) bool {
	return b[id>>6]&(uint64(1)<<(id&63)) != 0
}

// Set sets bit id with a plain read-modify-write. Single-writer per word
// only (see the file comment).
func (b bitset) Set(id uint64) {
	b[id>>6] |= uint64(1) << (id & 63)
}

// Clear clears bit id with a plain read-modify-write. Single-writer per
// word only.
func (b bitset) Clear(id uint64) {
	b[id>>6] &^= uint64(1) << (id & 63)
}

// GetAtomic reads bit id with an atomic load, for readers racing
// TestAndSet/SetAtomic on the same words.
func (b bitset) GetAtomic(id uint64) bool {
	return atomic.LoadUint64(&b[id>>6])&(uint64(1)<<(id&63)) != 0
}

// SetAtomic sets bit id with a CAS loop; safe from any goroutine.
func (b bitset) SetAtomic(id uint64) { b.TestAndSet(id) }

// TestAndSet atomically sets bit id and reports whether this call changed
// it — i.e. whether the caller claimed the state. Exactly one of any number
// of concurrent claimants wins.
func (b bitset) TestAndSet(id uint64) bool {
	word := &b[id>>6]
	mask := uint64(1) << (id & 63)
	for {
		old := atomic.LoadUint64(word)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(word, old, old|mask) {
			return true
		}
	}
}

// AppendSetBits appends the indices of the set bits in [lo, hi) to out in
// ascending order, scanning whole 64-bit words and peeling bits with
// trailing-zeros — the batched form of a get-per-id loop, used to seed the
// backward-BFS frontier straight from the I(K) membership bits at word
// speed. Plain (non-atomic) loads: callers synchronize like Get.
func (b bitset) AppendSetBits(out []uint64, lo, hi uint64) []uint64 {
	if lo >= hi {
		return out
	}
	for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
		w := b[wi]
		if w == 0 {
			continue
		}
		base := wi << 6
		if base < lo {
			w &= ^uint64(0) << (lo & 63)
		}
		if end := base + 64; end > hi {
			w &= ^uint64(0) >> (end - hi)
		}
		for w != 0 {
			out = append(out, base+uint64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// Count returns the number of set bits.
func (b bitset) Count() uint64 {
	var n uint64
	for _, w := range b {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// Bytes returns the heap footprint of the table in bytes — the
// memory-accounting figure surfaced through Instance.TableBytes,
// verify.Report and the lrserved /metrics gauges.
func (b bitset) Bytes() uint64 { return uint64(len(b)) * 8 }
