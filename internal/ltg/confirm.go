package ltg

import (
	"context"
	"fmt"

	"paramring/internal/core"
	"paramring/internal/explicit"
)

// Confirmation classifies a TrailWitness by bounded explicit search — the
// mechanized version of the paper's reconstruction attempt for the
// sum-not-two trail ("if we try to reconstruct the global livelock of a
// ring of three processes using T_R, we fail!").
type Confirmation struct {
	// Confirmed is true when a real livelock using only the witness's
	// t-arcs exists at some checked ring size.
	Confirmed bool
	// K is the smallest ring size with such a livelock (when Confirmed).
	K int
	// Cycle is the concrete global livelock (when Confirmed).
	Cycle []uint64
	// MaxKChecked records the search bound; !Confirmed means "spurious up
	// to this bound", not a proof of spuriousness for all K.
	MaxKChecked int
}

// ConfirmWitness is ConfirmWitnessCtx without a deadline, with the
// explicit engine's default options.
func ConfirmWitness(p *core.Protocol, w *TrailWitness, maxK int) (Confirmation, error) {
	return ConfirmWitnessCtx(context.Background(), p, w, maxK)
}

// ConfirmWitnessCtx tries to realize a trail witness as a concrete livelock
// on rings of size 2..maxK: it asks the explicit engine for the smallest
// ring size at which the protocol restricted to the witness's t-arcs
// livelocks (explicit.SmallestLivelockK, which decides each size on the
// quotient by rotation), and builds one instance at that size only to
// return the cycle. Because Theorem 5.14 is sufficient but not necessary,
// a witness can be spurious; this function tells the two cases apart (up
// to the bound). opts reach every explicit check (workers, the state
// guard), and a done ctx ends the search with ctx.Err().
//
// maxK <= 0 selects 7.
func ConfirmWitnessCtx(ctx context.Context, p *core.Protocol, w *TrailWitness, maxK int, opts ...explicit.Option) (Confirmation, error) {
	if w == nil {
		return Confirmation{}, fmt.Errorf("ltg: nil witness")
	}
	if maxK <= 0 {
		maxK = 7
	}
	conf := Confirmation{MaxKChecked: maxK}

	// Restrict the protocol to the witness t-arcs: a table-driven protocol
	// with exactly those local transitions. Livelocks of the restriction
	// are livelocks of p whose schedule uses only witness t-arcs.
	sys := p.Compile()
	moves := map[core.LocalState][]int{}
	for _, t := range w.TArcs {
		nv := sys.OwnValue(t.Dst)
		dup := false
		for _, existing := range moves[t.Src] {
			if existing == nv {
				dup = true
			}
		}
		if !dup {
			moves[t.Src] = append(moves[t.Src], nv)
		}
	}
	lo, hi := p.Window()
	restricted, err := core.NewFromTable(core.Config{
		Name:       p.Name() + "/witness",
		Domain:     p.Domain(),
		ValueNames: p.ValueNames(),
		Lo:         lo,
		Hi:         hi,
		Legit:      p.LegitimateView,
	}, []core.TableAction{{Name: "w", Moves: moves}})
	if err != nil {
		return conf, fmt.Errorf("ltg: building witness restriction: %w", err)
	}

	k, err := explicit.SmallestLivelockK(ctx, restricted, maxK, opts...)
	if err != nil || k == 0 {
		return conf, err
	}
	in, err := explicit.NewInstanceCtx(ctx, restricted, k, opts...)
	if err != nil {
		return conf, err
	}
	cycle, err := in.FindLivelockCtx(ctx)
	if err != nil {
		return conf, err
	}
	if cycle == nil {
		return conf, fmt.Errorf("ltg: K=%d livelocks on the quotient by rotation, but its instance has no livelock", k)
	}
	conf.Confirmed = true
	conf.K = k
	conf.Cycle = cycle
	return conf, nil
}
