package bench

import (
	"strings"
	"testing"
)

// The suite smoke tests run every grid at one iteration per metric — they
// pin the metric names (the identifiers baselines match on) and the
// invariant extras, not the timings.

func TestVerifySuiteSmoke(t *testing.T) {
	s, err := VerifySuite(Config{Smoke: true, MaxK: 6})
	if err != nil {
		t.Fatal(err)
	}
	if s.Suite != "verify" || s.Schema != SchemaVersion {
		t.Fatalf("snapshot header: %+v", s)
	}
	for _, name := range []string{
		"speccache/compile/cold",
		"speccache/compile/hit",
		"speccache/compile/hit-unaliased",
		"verify/check/sum-not-two",
		"verify/check/cold-d4-40",
		"verify/check/cold-d4-70",
		"theorem42/lengths/cold-d4-40",
		"theorem42/lengths/cold-d4-70",
		"theorem42/cycles/cold-d4-40",
		"explicit/rings/cold-d4-40",
		"explicit/rings/cold-d4-70",
		"explicit/rings/cold-d4-40/tables-rebuilt",
		"ltg/confirm/sntwide-d6",
		"table1/local/sum-not-two",
		"table1/global/seq/sum-not-two/K=6",
		"table1/global/par/sum-not-two/K=6",
		"table1/local/matchingA",
		"table1/global/seq/matchingA/K=6",
	} {
		if _, ok := s.Metric(name); !ok {
			t.Errorf("verify suite missing metric %q", name)
		}
	}
	if m, _ := s.Metric("table1/global/seq/sum-not-two/K=6"); m.Extra["states"] != 729 {
		t.Errorf("K=6 on domain 3 must report 3^6 states, got %v", m.Extra["states"])
	}
	if m, _ := s.Metric("verify/check/sum-not-two"); m.Extra["peak_table_bytes"] <= 0 {
		t.Errorf("verify/check must carry the admission-control estimate, got %v", m.Extra)
	}
	// MaxK caps the grid.
	for _, m := range s.Metrics {
		if strings.Contains(m.Name, "K=8") {
			t.Errorf("MaxK 6 leaked a K=8 metric: %s", m.Name)
		}
	}
}

func TestSynthSuiteSmoke(t *testing.T) {
	s, err := SynthSuite(Config{Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"synthesis/agreement/flat",
		"synthesis/agreement/seq",
		"synthesis/agreement/par",
		"synthesis/coloring4/par",
		"table4/global/seq/sum-not-two/K=4",
		"table4/global/par/coloring3/K=3",
	} {
		if _, ok := s.Metric(name); !ok {
			t.Errorf("synth suite missing metric %q", name)
		}
	}
	// The engine modes enumerate the same space: the candidate counter is
	// mode-independent (the determinism contract the benchmarks ride on).
	flat, _ := s.Metric("synthesis/sum-not-two/flat")
	seq, _ := s.Metric("synthesis/sum-not-two/seq")
	if flat.Extra["candidates"] != seq.Extra["candidates"] || flat.Extra["candidates"] <= 0 {
		t.Errorf("candidates differ across modes: flat %v seq %v", flat.Extra, seq.Extra)
	}
}

func TestRunRejectsUnknownSuite(t *testing.T) {
	if _, err := Run("nope", Config{Smoke: true}); err == nil {
		t.Fatal("unknown suite must error")
	}
}
