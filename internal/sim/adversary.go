package sim

import (
	"math"
	"math/rand"

	"paramring/internal/explicit"
)

// Adversary is a worst-case daemon: among the enabled processes it executes
// the one whose resulting state is farthest from I (by shortest-path
// distance), modeling the strongest scheduling adversary a self-stabilizing
// protocol must beat. It needs a distance oracle precomputed from the
// instance, so it only works on instances small enough for RecoveryRadius.
type Adversary struct {
	in   *explicit.Instance
	dist []int32 // Instance.RecoveryDistances: -1 where I is unreachable
}

// NewAdversary precomputes distance-to-I for every state (the engine's
// backward BFS).
func NewAdversary(in *explicit.Instance) *Adversary {
	return &Adversary{in: in, dist: in.RecoveryDistances()}
}

// distance returns the distance from id to I, or the largest int when I
// is unreachable from id: the adversary's ultimate win.
func (a *Adversary) distance(id uint64) int {
	if d := a.dist[id]; d >= 0 {
		return int(d)
	}
	return math.MaxInt
}

// Name implements Scheduler.
func (a *Adversary) Name() string { return "adversary" }

// Pick implements Scheduler. It requires the current state, so Adversary
// tracks it via PickFrom; the Scheduler interface's Pick falls back to the
// last process (rightmost) when state tracking was not wired up.
func (a *Adversary) Pick(enabled []int, _ int, _ *rand.Rand) int {
	return enabled[len(enabled)-1]
}

// PickFrom selects, from the given state, the enabled process whose worst
// nondeterministic outcome is farthest from I.
func (a *Adversary) PickFrom(state uint64, enabled []int) int {
	bestProc := enabled[0]
	bestDist := -1
	for _, p := range enabled {
		for _, t := range a.in.SuccessorsDetailed(state) {
			if t.Process != p {
				continue
			}
			if d := a.distance(t.To); d > bestDist {
				bestDist = d
				bestProc = p
			}
		}
	}
	return bestProc
}

// RunAdversarial drives a run under the adversary, picking the worst
// enabled process AND the worst nondeterministic outcome at every step.
// Returns the step count and whether I was reached within maxSteps.
func RunAdversarial(in *explicit.Instance, start uint64, maxSteps int) (steps int, converged bool) {
	adv := NewAdversary(in)
	return adv.Run(start, maxSteps)
}

// Run drives a single adversarial run from start.
func (a *Adversary) Run(start uint64, maxSteps int) (steps int, converged bool) {
	if maxSteps <= 0 {
		maxSteps = 100000
	}
	cur := start
	for step := 0; step < maxSteps; step++ {
		if a.in.InI(cur) {
			return step, true
		}
		enabled := a.in.EnabledProcesses(cur)
		if len(enabled) == 0 {
			return step, a.in.InI(cur)
		}
		p := a.PickFrom(cur, enabled)
		// Worst outcome among p's choices.
		worst := uint64(0)
		worstDist := -1
		for _, t := range a.in.SuccessorsDetailed(cur) {
			if t.Process != p {
				continue
			}
			if d := a.distance(t.To); d > worstDist {
				worstDist = d
				worst = t.To
			}
		}
		cur = worst
	}
	return maxSteps, a.in.InI(cur)
}

// WorstCaseSteps returns the maximum adversarial convergence time over all
// states — an upper-bound companion to RecoveryRadius's shortest-path lower
// bound. Returns ok=false if some run fails to converge within maxSteps
// (i.e. the adversary found a non-converging schedule).
func WorstCaseSteps(in *explicit.Instance, maxSteps int) (worst int, ok bool) {
	adv := NewAdversary(in)
	for id := uint64(0); id < in.NumStates(); id++ {
		steps, converged := adv.Run(id, maxSteps)
		if !converged {
			return steps, false
		}
		if steps > worst {
			worst = steps
		}
	}
	return worst, true
}
