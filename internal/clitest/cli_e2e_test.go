// Package clitest runs the command-line tools end to end via `go run`,
// asserting on their observable output — the closest thing to a user
// driving the shipped binaries. Skipped under -short.
package clitest

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// run executes `go run ./cmd/<tool> args...` at the module root and returns
// combined output; wantExit selects the expected process outcome.
func run(t *testing.T, tool string, wantOK bool, args ...string) string {
	t.Helper()
	root := moduleRoot(t)
	cmdArgs := append([]string{"run", "./cmd/" + tool}, args...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if wantOK && err != nil {
		t.Fatalf("%s %v failed: %v\n%s", tool, args, err, out)
	}
	if !wantOK && err == nil {
		t.Fatalf("%s %v expected a non-zero exit\n%s", tool, args, out)
	}
	return string(out)
}

func requireContains(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
}

func TestLrverifyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := run(t, "lrverify", true, "-protocol", "sum-not-two-ss", "-explain")
	requireContains(t, out,
		"Theorem 4.2 (deadlock-freedom for every K): true",
		"livelock-free",
		"strongly self-stabilizing for EVERY ring size K",
		"diagnosis:")

	out = run(t, "lrverify", true, "-protocol", "matchingB")
	requireContains(t, out,
		"Theorem 4.2 (deadlock-freedom for every K): false",
		"<rll, lls, lsr, srl>",
		"deadlocking ring sizes up to 16: 4 6 7 8")

	out = run(t, "lrverify", true, "-file", "specs/mis.gc")
	requireContains(t, out, "protocol mis", "Theorem 4.2 (deadlock-freedom for every K): true")

	run(t, "lrverify", false, "-protocol", "not-a-protocol")
}

// TestLrverifyCrossValidationTable pins lrverify -xk's per-K table: one
// row per K = 2..6 of global states, table KiB, illegitimate deadlocks,
// livelock (reported only where no illegitimate deadlock is) and strong
// convergence — on matchingA, which converges at every K, matchingB, which
// deadlocks at K = 4 and 6, gouda-acharya, which livelocks from K = 3, and
// a spec that both deadlocks and livelocks from K = 3, where the livelock
// column reads false.
func TestLrverifyCrossValidationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	both := filepath.Join(t.TempDir(), "stuck-twos.gc")
	spec := "protocol stuck-twos\ndomain 3\nwindow -1 0\nlegit x[-1] == x[0]\n" +
		"action copy: x[-1] != x[0] && x[0] != 2 && x[-1] != 2 -> x[0] := x[-1]\n"
	if err := os.WriteFile(both, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		rows []string
	}{
		{[]string{"-protocol", "matchingA"}, []string{
			"2 9 1 0 false true",
			"3 27 1 0 false true",
			"4 81 1 0 false true",
			"5 243 1 0 false true",
			"6 729 1 0 false true",
		}},
		{[]string{"-protocol", "matchingB"}, []string{
			"2 9 1 0 false true",
			"3 27 1 0 false true",
			"4 81 1 4 false false",
			"5 243 1 0 false true",
			"6 729 1 6 false false",
		}},
		{[]string{"-protocol", "gouda-acharya"}, []string{
			"2 9 1 0 false true",
			"3 27 1 0 true false",
			"4 81 1 0 true false",
			"5 243 1 0 true false",
			"6 729 1 0 true false",
		}},
		{[]string{"-file", both}, []string{
			"2 9 1 4 false false",
			"3 27 1 12 false false",
			"4 81 1 32 false false",
			"5 243 1 80 false false",
			"6 729 1 196 false false",
		}},
	} {
		out := run(t, "lrverify", true, append(tc.args, "-xk", "6", "-workers", "2")...)
		_, table, ok := strings.Cut(out, "explicit cross-validation (K=2..6, 2 workers):\n")
		if !ok {
			t.Fatalf("%v: no cross-validation table in\n%s", tc.args, out)
		}
		lines := strings.Split(table, "\n")
		if len(lines) < 2+len(tc.rows) {
			t.Fatalf("%v: short table\n%s", tc.args, table)
		}
		for i, want := range tc.rows {
			if got := strings.Join(strings.Fields(lines[2+i]), " "); got != want {
				t.Fatalf("%v: row %d is %q, want %q\n%s", tc.args, i, got, want, table)
			}
		}
		if next := strings.TrimSpace(lines[2+len(tc.rows)]); next != "" {
			t.Fatalf("%v: row after K=6: %q", tc.args, next)
		}
	}
}

func TestLrsynthEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := run(t, "lrsynth", true, "-protocol", "agreement", "-validate", "4")
	requireContains(t, out, "accept", "phase NPL", "K=4:true")

	out = run(t, "lrsynth", false, "-protocol", "coloring3")
	requireContains(t, out, "declare failure", "FAILURE")
}

func TestLrmcEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := run(t, "lrmc", true, "-protocol", "agreement-both", "-k", "4")
	requireContains(t, out, "livelock: FOUND", "strong convergence to I(K): false", "weak convergence to I(K): true")

	out = run(t, "lrmc", true, "-protocol", "token-ring", "-k", "4", "-m", "4")
	requireContains(t, out, "strong convergence to I(K): true", "recovery radius")
}

func TestLrvizEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := run(t, "lrviz", true, "-protocol", "matching", "-graph", "rcg")
	requireContains(t, out, "digraph", "style=dashed", `"lls"`)
}

func TestLrsimEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := run(t, "lrsim", true, "-protocol", "sum-not-two-ss", "-k", "6", "-trials", "20")
	requireContains(t, out, "converged: 20/20")
}

func TestLrtreeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := run(t, "lrtree", true, "-file", "specs/coloring3.gc", "-synthesize", "-validate-chains", "3")
	requireContains(t, out, "stabilizing over ALL rooted trees", "chain n=3: strongly converges=true")
}

func TestLrexperimentsSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := run(t, "lrexperiments", true, "-id", "F5", "-summary")
	requireContains(t, out, "F5", "match=true")
}

// TestMalformedSpecIsOneLineError feeds the tools a spec that parses but
// whose action writes outside the domain: the binaries must exit non-zero
// with a single "tool: message" line, never a panic stack trace.
func TestMalformedSpecIsOneLineError(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bad := filepath.Join(t.TempDir(), "overflow.gc")
	src := "protocol overflow\ndomain 2\nwindow 0 1\n" +
		"legit x[0] == x[1]\naction bump: x[0] != x[1] -> x[0] := x[1] + 1\n"
	if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tool := range []string{"lrmc", "lrverify"} {
		out := run(t, tool, false, "-file", bad)
		requireContains(t, out, tool+": ", "outside domain")
		for _, forbidden := range []string{"panic", "goroutine"} {
			if strings.Contains(out, forbidden) {
				t.Fatalf("%s dumped a stack trace:\n%s", tool, out)
			}
		}
		// "exit status N" from `go run` aside, the tool's own output is
		// exactly one diagnostic line.
		var diag int
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if strings.HasPrefix(line, tool+": ") {
				diag++
			}
		}
		if diag != 1 {
			t.Fatalf("%s printed %d diagnostic lines, want 1:\n%s", tool, diag, out)
		}
	}
	// Unreadable files take the same path.
	out := run(t, "lrmc", false, "-file", filepath.Join(t.TempDir(), "missing.gc"))
	requireContains(t, out, "lrmc: ", "no such file")
}

func TestLrreportEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := run(t, "lrreport", true, "-maxk", "4", "-trials", "10")
	requireContains(t, out, "# paramring evaluation sweep", "| matchingA |", "Simulated recovery")
}
