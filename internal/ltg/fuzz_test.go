package ltg

import (
	"fmt"
	"testing"

	"paramring/internal/core"
)

// maxFuzzLocalStates bounds domain^W for the decoded fuzz protocols, so
// that a domain-64 protocol keeps a two-wide window.
const maxFuzzLocalStates = 4096

// decodeWriteCase decodes fuzz bytes into a table protocol:
//
//	data[0]        domain 2 + data[0]%63, so 2..64
//	data[1]        window [-1,0], [0,1], [-1,1] or [-2,0] by data[1]%4; a
//	               three-wide window falls back to [-1,0] when domain^3
//	               exceeds maxFuzzLocalStates
//	data[2]        bit 0 set: deterministic, the first move of a local
//	               state wins
//	data[3+3i:]    move i: local state (data[3+3i] | data[4+3i]<<8) modulo
//	               the local state count writes data[5+3i] modulo the
//	               domain — a self-loop of the write projection when that
//	               is the state's own value
//
// Every local state is illegitimate: the write projection ignores I.
func decodeWriteCase(data []byte) (*core.Protocol, error) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	d := 2 + at(0)%63
	windows := [][2]int{{-1, 0}, {0, 1}, {-1, 1}, {-2, 0}}
	lo, hi := windows[at(1)%4][0], windows[at(1)%4][1]
	if hi-lo == 2 && d*d*d > maxFuzzLocalStates {
		lo, hi = -1, 0
	}
	codes := 1
	for i := lo; i <= hi; i++ {
		codes *= d
	}
	deterministic := at(2)&1 == 1
	moves := map[core.LocalState][]int{}
	for i := 3; i+2 < len(data); i += 3 {
		s := core.LocalState((at(i) | at(i+1)<<8) % codes)
		if deterministic && len(moves[s]) > 0 {
			continue
		}
		moves[s] = append(moves[s], at(i+2)%d)
	}
	return core.NewFromTable(core.Config{
		Name: fmt.Sprintf("fuzz-d%d-w%d", d, hi-lo+1), Domain: d, Lo: lo, Hi: hi,
		Legit: func(core.View) bool { return false },
	}, []core.TableAction{{Name: "m", Moves: moves}})
}

// FuzzWriteCyclesEquivalence is the differential fuzz of the subset
// search's bit-mask test against FormsPseudoLivelock: on a protocol decoded
// from the input (decodeWriteCase), every non-empty mask of its first 12
// or fewer t-arcs must get the same answer from writeCycles.forms as from
// FormsPseudoLivelock on the subset. testdata/fuzz holds the committed
// seeds (sum-not-two's {t21,t10,t02}, a projection of self-loops only, and
// a domain-64 protocol whose writes reach value 63, the last bit of a
// reachability row); CI replays them under -race.
func FuzzWriteCyclesEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodeWriteCase(data)
		if err != nil {
			t.Skip(err)
		}
		sys := p.Compile()
		tarcs := sys.Trans[:min(len(sys.Trans), 12)]
		w := newWriteCycles(sys, tarcs)
		if w == nil {
			t.Fatalf("%s: no mask test for domain %d", p.Name(), p.Domain())
		}
		for mask := 1; mask < 1<<len(tarcs); mask++ {
			if got, want := w.forms(mask), FormsPseudoLivelock(sys, subsetOf(tarcs, mask)); got != want {
				t.Fatalf("%s mask %b of %v: mask test %v, FormsPseudoLivelock %v", p.Name(), mask, tarcs, got, want)
			}
		}
	})
}
