package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"paramring/internal/dsl"
	"paramring/internal/explicit"
)

//go:embed testdata/paper-verdicts.json
var paperVerdictsJSON []byte

//go:embed testdata/golden-seed1.json
var goldenJSON []byte

// paperVerdict is a verdict for one shipped spec under default options,
// checked by hand against the paper (see the note of each entry).
type paperVerdict struct {
	Deadlock         string `json:"deadlock"`
	DeadlockWitnessK int    `json:"deadlock_witness_k,omitempty"`
	Livelock         string `json:"livelock"`
	SelfStabilizing  bool   `json:"self_stabilizing"`
	Note             string `json:"note"`
}

// golden holds the seed-1 verdict digests of every workload at one run
// length.
type golden struct {
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]goldenWorkload `json:"workloads"`
}

type goldenWorkload struct {
	Answers  int            `json:"answers"`
	Digest   string         `json:"digest"`
	Verdicts map[string]int `json:"verdicts"`
}

// oracleMaxK is the largest ring size the benchmark's own explicit check
// searches for a Proved verdict; oracleMaxStates caps the instance it will
// build to reproduce a witness.
const (
	oracleMaxK      = 6
	oracleMaxStates = 1 << 20
)

// short renders the verdict compactly for the golden histogram and for
// diagnostics.
func (v *verdict) short() string {
	xv := 0
	if n := len(v.CrossValidated); n > 0 {
		xv = v.CrossValidated[n-1]
	}
	s := fmt.Sprintf("deadlock=%s/%d livelock=%s/%d contiguous=%t fallback=%d ss=%t xval=%d",
		v.Deadlock, v.DeadlockWitnessK, v.Livelock, v.LivelockWitnessK,
		v.ContiguousOnly, v.LivelockBoundedFreeK, v.SelfStabilizing, xv)
	if v.InvariantDeadlock != "" {
		s += fmt.Sprintf(" inv=%s/%s/%s byinv=%t", v.InvariantDeadlock, v.InvariantLivelock,
			v.InvariantClosure, v.LivelockProvedByInvariant)
	}
	if len(v.Disagreements) > 0 {
		s += fmt.Sprintf(" disagreements=%d", len(v.Disagreements))
	}
	return s
}

// checked is the benchmark's own reading of one answered spec.
type checked struct {
	tuple      string // "<hash of canonical spec and options> <verdict key>"
	err        error  // the explicit check's objection, if any
	skip       bool   // a witness too large to rebuild
	contiguous bool   // a contiguous-only livelock claim, left unchecked
}

// explicitCheck re-derives v for s with the explicit engine: a refuted
// property must reproduce at its witness ring size, and a proved one must
// hold on every ring of 2..oracleMaxK processes.
func explicitCheck(s spec, v *verdict) checked {
	var c checked
	ps, err := dsl.ParseSpec(s.source)
	if err != nil {
		c.err = fmt.Errorf("parse: %w", err)
		return c
	}
	o, _ := json.Marshal(s.opts)
	h := sha256.Sum256([]byte(dsl.Format(ps) + "\x00" + string(o)))
	c.tuple = hex.EncodeToString(h[:8]) + " " + v.key()
	p, err := ps.Protocol()
	if err != nil {
		c.err = fmt.Errorf("compile: %w", err)
		return c
	}
	if len(v.Disagreements) > 0 {
		c.err = fmt.Errorf("disagreements: %v", v.Disagreements)
		return c
	}
	ctx := context.Background()
	instance := func(k int) (*explicit.Instance, bool, error) {
		if n, ok := explicit.EstimateStates(p.Domain(), k); !ok || n > oracleMaxStates {
			return nil, false, nil
		}
		in, err := explicit.NewInstanceCtx(ctx, p, k, explicit.WithWorkers(1))
		return in, err == nil, err
	}
	property := func(status string, witnessK int, bad func(*explicit.Instance) (bool, error), what string) error {
		switch status {
		case "refuted":
			in, ok, err := instance(witnessK)
			if err != nil {
				return err
			}
			if !ok {
				c.skip = true
				return nil
			}
			found, err := bad(in)
			if err != nil {
				return err
			}
			if !found {
				return fmt.Errorf("%s witness at K=%d not reproduced", what, witnessK)
			}
		case "proved":
			for k := 2; k <= oracleMaxK; k++ {
				in, ok, err := instance(k)
				if err != nil || !ok {
					return err
				}
				found, err := bad(in)
				if err != nil {
					return err
				}
				if found {
					return fmt.Errorf("%s proved, but K=%d has one", what, k)
				}
			}
		}
		return nil
	}
	if err := property(v.Deadlock, v.DeadlockWitnessK, func(in *explicit.Instance) (bool, error) {
		return len(in.IllegitimateDeadlocks()) > 0, nil
	}, "illegitimate deadlock"); err != nil {
		c.err = err
		return c
	}
	if v.Livelock == "proved" && v.ContiguousOnly && !v.LivelockProvedByInvariant {
		// The claim covers contiguous livelocks only, and an explicit
		// livelock search does not tell the two kinds apart.
		c.contiguous = true
		return c
	}
	c.err = property(v.Livelock, v.LivelockWitnessK, func(in *explicit.Instance) (bool, error) {
		cycle, err := in.FindLivelockCtx(ctx)
		return cycle != nil, err
	}, "livelock")
	return c
}

// checkAnswers runs the verdict oracle over a run's answers: agreement
// between repeated answers (counted while the load ran), (a) the paper's
// verdicts, (b) the benchmark's explicit check, and, withGolden, (c) the
// seed-1 golden digest. Every objection counts as a failed verdict and
// clears correct.
func checkAnswers(e env, w workload, r *result, in *inputs, ans *answers, withGolden bool) {
	fail := func(format string, args ...any) {
		r.failed++
		r.correct = false
		if len(r.notes) < 40 {
			r.note("VERDICT MISMATCH: "+format, args...)
		}
	}
	if ans.mismatches > 0 {
		r.correct = false
		for _, ex := range ans.examples {
			r.note("VERDICT MISMATCH: %s", ex)
		}
	}

	var paper map[string]paperVerdict
	if err := json.Unmarshal(paperVerdictsJSON, &paper); err != nil {
		fail("paper verdicts: %v", err)
		return
	}
	specs := in.specs
	results := make([]checked, len(specs))
	_ = parallel(len(specs), func(id int) error {
		if v := ans.first[id]; v != nil {
			results[id] = explicitCheck(specs[id], v)
		}
		return nil
	})

	var tuples []string
	skipped, contiguous, paperChecked := 0, 0, 0
	for id, s := range specs {
		v := ans.first[id]
		if v == nil {
			continue // never answered: already counted as failed
		}
		c := results[id]
		if c.err != nil {
			fail("%s: %v (lrserved said %s)", s.name, c.err, v.short())
		}
		if c.skip {
			skipped++
		}
		if c.contiguous {
			contiguous++
		}
		tuples = append(tuples, c.tuple)
		if want, ok := paper[s.name]; ok && s.opts == (options{}) {
			paperChecked++
			if v.Deadlock != want.Deadlock || v.Livelock != want.Livelock ||
				v.SelfStabilizing != want.SelfStabilizing ||
				(want.DeadlockWitnessK != 0 && v.DeadlockWitnessK != want.DeadlockWitnessK) {
				fail("%s: paper says deadlock=%s/%d livelock=%s ss=%t, lrserved said %s",
					s.name, want.Deadlock, want.DeadlockWitnessK, want.Livelock, want.SelfStabilizing, v.short())
			}
		}
	}
	r.note("oracle: %d distinct answers checked against the explicit engine (K=2..%d; %d witnesses too large to rebuild, %d contiguous-only livelock claims not checkable); %d against paper verdicts",
		len(tuples), oracleMaxK, skipped, contiguous, paperChecked)

	if !withGolden || e.seed != 1 {
		return
	}
	got := digestOf(ans, tuples)
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		fail("golden file: %v", err)
		return
	}
	if e.update {
		if err := updateGolden(e, w.name, got); err != nil {
			fail("update golden: %v", err)
		}
		return
	}
	want, ok := g.Workloads[w.name]
	switch {
	case g.Seconds != e.secs || !ok:
		r.note("golden digest: not recorded for %gs runs; skipped", e.secs)
	case want.Digest == got.Digest:
		r.note("golden digest: matches (%d answers)", got.Answers)
	default:
		fail("golden digest differs: %d answers now, %d recorded", got.Answers, want.Answers)
		for _, d := range histogramDiff(want.Verdicts, got.Verdicts, 10) {
			r.note("  %s", d)
		}
	}
}

// digestOf is the golden digest of a pass: sha256 over the sorted tuples,
// plus the verdict histogram used to explain a mismatch.
func digestOf(ans *answers, tuples []string) goldenWorkload {
	sort.Strings(tuples)
	h := sha256.Sum256([]byte(strings.Join(tuples, "\n")))
	g := goldenWorkload{Answers: len(tuples), Digest: hex.EncodeToString(h[:]), Verdicts: map[string]int{}}
	for _, v := range ans.first {
		if v != nil {
			g.Verdicts[v.short()]++
		}
	}
	return g
}

// histogramDiff lists up to limit verdict classes whose counts differ.
func histogramDiff(want, got map[string]int, limit int) []string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var sorted []string
	for k := range keys {
		if want[k] != got[k] {
			sorted = append(sorted, k)
		}
	}
	sort.Strings(sorted)
	var out []string
	for _, k := range sorted {
		if len(out) == limit {
			break
		}
		out = append(out, fmt.Sprintf("%s: recorded %d, now %d", k, want[k], got[k]))
	}
	return out
}

// updateGolden rewrites the workload's entry of the golden file in the
// source tree.
func updateGolden(e env, name string, got goldenWorkload) error {
	path := filepath.Join(e.root, "e2ebench", "testdata", "golden-seed1.json")
	var g golden
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return err
	}
	if g.Seconds != e.secs {
		g = golden{Seconds: e.secs}
	}
	if g.Workloads == nil {
		g.Workloads = map[string]goldenWorkload{}
	}
	g.Workloads[name] = got
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
