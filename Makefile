# paramring — build, test and experiment targets.

GO ?= go

.PHONY: all build vet test race cover bench bench-verify bench-synth bench-all bench-compare experiments figures clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./internal/... && $(GO) tool cover -func=cover.out | tail -20

bench:
	$(GO) test -bench=. -benchmem ./...

# The regression-gated snapshots (see PERFORMANCE.md). bench-verify and
# bench-synth re-measure the deterministic lrbench grids and overwrite the
# committed baselines at the repo root — run bench-all and commit the
# result whenever a PR moves the numbers on purpose.
bench-verify:
	$(GO) run ./cmd/lrbench -suite verify -o BENCH_verify.json

bench-synth:
	$(GO) run ./cmd/lrbench -suite synth -o BENCH_synth.json

bench-all: bench-verify bench-synth

# Re-measure into *.new.json and gate against the committed baselines.
# The default threshold is wider than lrbench's 10% because this target
# usually runs on different hardware than the one that wrote the baseline;
# CI widens it further (see .github/workflows/ci.yml).
BENCH_THRESHOLD ?= 0.25
bench-compare:
	$(GO) run ./cmd/lrbench -suite verify -o BENCH_verify.new.json
	$(GO) run ./cmd/lrbench -suite synth -o BENCH_synth.new.json
	$(GO) run ./cmd/lrbench -compare -threshold $(BENCH_THRESHOLD) BENCH_verify.json BENCH_verify.new.json
	$(GO) run ./cmd/lrbench -compare -threshold $(BENCH_THRESHOLD) BENCH_synth.json BENCH_synth.new.json

# Regenerate every figure/claim of the paper (summary table).
experiments:
	$(GO) run ./cmd/lrexperiments -summary

# Emit DOT files for the paper's graph figures.
figures:
	mkdir -p figures
	$(GO) run ./cmd/lrviz -protocol matching -graph rcg > figures/fig1-rcg.dot
	$(GO) run ./cmd/lrviz -protocol matchingA -graph rcg -deadlocks > figures/fig2-deadlocks.dot
	$(GO) run ./cmd/lrviz -protocol matchingB -graph rcg -deadlocks > figures/fig3-deadlocks.dot
	$(GO) run ./cmd/lrviz -protocol matchingA -graph ltg > figures/fig4-ltg.dot
	$(GO) run ./cmd/lrviz -protocol gouda-acharya -graph ltg > figures/fig8-ltg.dot
	$(GO) run ./cmd/lrviz -protocol coloring3 -graph ltg > figures/fig9-ltg.dot
	$(GO) run ./cmd/lrviz -protocol agreement-both -graph ltg > figures/fig10-ltg.dot
	$(GO) run ./cmd/lrviz -protocol coloring2 -graph ltg > figures/fig11-ltg.dot
	$(GO) run ./cmd/lrviz -protocol sum-not-two-ss -graph ltg > figures/fig12-ltg.dot

clean:
	rm -rf figures cover.out BENCH_verify.new.json BENCH_synth.new.json
