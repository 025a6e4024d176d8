package verify

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"paramring/internal/core"
	"paramring/internal/dsl"
	"paramring/internal/protocols"
	"paramring/internal/protogen"
)

var updateResultPin = flag.Bool("update-resultpin", false, "rewrite testdata/resultpin.json from the current engine")

// resultPin is one pinned verification: the sha256 of the JSON-encoded
// Result of one protocol under one option set.
type resultPin struct {
	Name    string `json:"name"`
	Options string `json:"options"`
	SHA256  string `json:"sha256"`
}

type pinProtocol struct {
	name string
	p    *core.Protocol
}

// resultPinProtocols lists the pinned inputs in a fixed order: every zoo
// protocol, every spec under specs/, and four protogen sweep families —
// d=4 window [-1,0] at 40% and 70% moves (the shape of the end-to-end
// benchmark's cold and batch workloads) and d=3 windows [-1,1] and [0,1],
// whose members include livelocks, bounded-fallback searches and
// contiguous-only proofs — plus eight protogen.Random tables.
func resultPinProtocols(t *testing.T) []pinProtocol {
	t.Helper()
	var out []pinProtocol
	zoo := protocols.All()
	names := make([]string, 0, len(zoo))
	for n := range zoo {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out = append(out, pinProtocol{"zoo/" + n, zoo[n]})
	}

	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.gc"))
	if err != nil || len(files) != 8 {
		t.Fatalf("specs/*.gc: %v (%d files, want 8)", err, len(files))
	}
	sort.Strings(files)
	for _, f := range files {
		p, err := dsl.ParseFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, pinProtocol{"specs/" + filepath.Base(f), p})
	}

	sw := protogen.Sweep{Seed: 20120612, Families: []protogen.SweepFamily{
		{Name: "cold40", Domain: 4, Lo: -1, Hi: 0, Variants: 8, MovePercent: 40},
		{Name: "cold70", Domain: 4, Lo: -1, Hi: 0, Variants: 8, MovePercent: 70},
		{Name: "d3w11", Domain: 3, Lo: -1, Hi: 1, Variants: 8},
		{Name: "d3w01", Domain: 3, Lo: 0, Hi: 1, Variants: 8},
	}}
	specs, err := sw.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if len(s.Deps) == 0 {
			continue // a family base: the shared shape, no actions
		}
		p, err := dsl.Parse(s.Source)
		if err != nil {
			t.Fatalf("sweep %s: %v", s.Name, err)
		}
		out = append(out, pinProtocol{"sweep/" + s.Name, p})
	}

	// Sweep members are self-disabling, so Theorem 5.14 always applies to
	// them. Random tables with stuttering and nondeterministic moves
	// violate Assumption 2, which sends them to the bounded fallback —
	// the path on which an explicit livelock decides the verdict.
	rng := rand.New(rand.NewSource(20120612))
	for i := 0; i < 8; i++ {
		p := protogen.Random(rng, protogen.Options{Domain: 2 + i%2, MovePercent: 60, Nondet: true})
		out = append(out, pinProtocol{fmt.Sprintf("random/%d-%s", i, p.Name()), p})
	}
	return out
}

// TestResultPin pins the bytes of every Result the explicit lanes can
// touch — cross-validation and the bounded fallback, at one and two
// engine workers — against testdata/resultpin.json. Verdicts, ring-size
// lists, disagreement messages, ExplicitStates and ExplicitPeakTableBytes
// all land in those bytes, so any engine change that alters an answer or a
// reported figure fails here. Regenerate with -update-resultpin only when
// a Result is meant to change.
func TestResultPin(t *testing.T) {
	optionSets := []struct {
		name string
		opts Options
	}{
		{"xval6/w1", Options{CrossValidateMaxK: 6, Workers: 1}},
		{"xval6/w2", Options{CrossValidateMaxK: 6, Workers: 2}},
		{"fallback6/w1", Options{BoundedFallbackMaxK: 6, Workers: 1}},
		{"fallback6/w2", Options{BoundedFallbackMaxK: 6, Workers: 2}},
	}
	// The pin set must reach every explicit-lane outcome, or an engine
	// change could alter an unpinned path.
	covered := map[string]bool{}
	var got []resultPin
	for _, np := range resultPinProtocols(t) {
		for _, set := range optionSets {
			rep, err := Check(np.p, set.opts)
			if err != nil {
				t.Fatalf("Check(%s, %s): %v", np.name, set.name, err)
			}
			data, err := json.Marshal(rep.Result(np.p.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			got = append(got, resultPin{Name: np.name, Options: set.name, SHA256: hex.EncodeToString(sum[:])})

			xval := set.opts.CrossValidateMaxK > 0
			covered["xval: deadlock refuted"] = covered["xval: deadlock refuted"] || xval && rep.Deadlock == Refuted
			covered["xval: livelock searched"] = covered["xval: livelock searched"] || xval && rep.Livelock == Proved
			covered["xval: livelock refuted"] = covered["xval: livelock refuted"] || xval && rep.Livelock == Refuted
			covered["contiguous-only proof"] = covered["contiguous-only proof"] || rep.ContiguousOnly
			covered["fallback: no livelock"] = covered["fallback: no livelock"] || rep.LivelockBoundedFreeK > 0
			covered["fallback: livelock found"] = covered["fallback: livelock found"] ||
				!xval && rep.LivelockTheorem == Inconclusive && rep.Livelock == Refuted
		}
	}
	for what, ok := range covered {
		if !ok {
			t.Errorf("no pinned protocol covers %q", what)
		}
	}

	path := filepath.Join("testdata", "resultpin.json")
	if *updateResultPin {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin file (run with -update-resultpin): %v", err)
	}
	var want []resultPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("pinned %d results, computed %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result %d changed:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
