package invariant

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"paramring/internal/core"
	"paramring/internal/dsl"
	"paramring/internal/protocols"
	"paramring/internal/protogen"
)

var updateCertPin = flag.Bool("update-certpin", false, "rewrite testdata/certpin.json from the current analyzer")

// certPin is one pinned analysis: the sha256 of the canonical certificate
// plus the LP's size and work.
type certPin struct {
	Name        string `json:"name"`
	SHA256      string `json:"sha256"`
	Pivots      int    `json:"pivots"`
	Constraints int    `json:"constraints"`
}

type namedProtocol struct {
	name string
	p    *core.Protocol
}

// certPinProtocols lists the pinned inputs in a fixed order: every zoo
// protocol, every spec under specs/, and the sweep members of the
// end-to-end benchmark's invariant-lp pool (same seed, family names and
// shapes, base specs dropped).
func certPinProtocols(t *testing.T) []namedProtocol {
	t.Helper()
	var out []namedProtocol
	zoo := protocols.All()
	names := make([]string, 0, len(zoo))
	for n := range zoo {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out = append(out, namedProtocol{"zoo/" + n, zoo[n]})
	}

	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.gc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("specs/*.gc: %v (%d files)", err, len(files))
	}
	sort.Strings(files)
	for _, f := range files {
		p, err := dsl.ParseFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, namedProtocol{"specs/" + filepath.Base(f), p})
	}

	for _, fam := range []protogen.SweepFamily{
		{Name: "lpd3", Domain: 3, Lo: -1, Hi: 1, Variants: 7, MovePercent: 70},
		{Name: "lpd4", Domain: 4, Lo: -1, Hi: 0, Variants: 2, MovePercent: 70},
	} {
		sw := protogen.Sweep{Seed: 20120612, Families: []protogen.SweepFamily{fam}}
		specs, err := sw.Specs()
		if err != nil {
			t.Fatalf("sweep %s: %v", fam.Name, err)
		}
		for _, s := range specs[1:] {
			p, err := dsl.Parse(s.Source)
			if err != nil {
				t.Fatalf("sweep %s: %v", s.Name, err)
			}
			out = append(out, namedProtocol{"sweep/" + s.Name, p})
		}
	}
	return out
}

// TestCertificatePin pins the canonical certificate bytes, pivot count and
// constraint count of every analysis in certPinProtocols against
// testdata/certpin.json. Any change to the LP solver must leave all three
// untouched: the pivot rules compare exact values, so the basis sequence —
// and with it the certificate — is a function of the LP alone, not of the
// arithmetic that carries it. Regenerate with -update-certpin only when the
// analysis itself is meant to change.
func TestCertificatePin(t *testing.T) {
	var got []certPin
	for _, np := range certPinProtocols(t) {
		rep, err := Analyze(context.Background(), np.p, Options{})
		if err != nil {
			t.Fatalf("Analyze(%s): %v", np.name, err)
		}
		sum := sha256.Sum256(rep.Certificate.Canon())
		got = append(got, certPin{
			Name:        np.name,
			SHA256:      hex.EncodeToString(sum[:]),
			Pivots:      rep.Pivots,
			Constraints: rep.Constraints,
		})
	}
	path := filepath.Join("testdata", "certpin.json")
	if *updateCertPin {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin file (run with -update-certpin): %v", err)
	}
	var want []certPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("pinned %d analyses, computed %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("analysis %d changed:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
