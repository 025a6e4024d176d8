package verify

import (
	"context"
	"errors"
	"testing"
	"time"

	"paramring/internal/dsl"
)

// sntWideSpec is the paper's rejected sum-not-two action set {t21, t10,
// t02} over domain 12: Theorem 5.14 finds a trail, and witness
// confirmation, which cannot realize it, searches every ring size up to
// ConfirmMaxK, 12^K states each.
const sntWideSpec = `protocol sntwide
domain 12
window -1 0
legit x[0] + x[-1] != 2
action t21: x[-1] == 0 && x[0] == 2 -> x[0] := 1
action t10: x[-1] == 1 && x[0] == 1 -> x[0] := 0
action t02: x[-1] == 2 && x[0] == 0 -> x[0] := 2
`

// TestWitnessConfirmationHonoursDeadline: witness confirmation polls the
// job's context. At domain 12 the search to K=7 takes longer than the
// deadline; CheckCtx must give up with the deadline error soon after it
// instead of finishing with an Inconclusive verdict.
func TestWitnessConfirmationHonoursDeadline(t *testing.T) {
	p, err := dsl.Parse(sntWideSpec)
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	rep, err := CheckCtx(ctx, p, Options{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("after %v: report %v, error %v; want the deadline error", elapsed, rep, err)
	}
	if elapsed > deadline+time.Second {
		t.Fatalf("returned %v after a %v deadline", elapsed, deadline)
	}
}
