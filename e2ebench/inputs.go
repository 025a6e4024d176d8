package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"paramring/internal/protogen"
)

//go:embed testdata/matchingB.gc
var testdata embed.FS

// options is the request option subset the workloads set (the JSON of
// lrserved's "options" object).
type options struct {
	CrossValidateMaxK int  `json:"cross_validate_max_k,omitempty"`
	Invariant         bool `json:"invariant,omitempty"`
}

// spec is one distinct (spec text, options) pair a workload asks lrserved
// to verify: every answer the server gives for it must be the same.
type spec struct {
	name   string
	source string
	opts   options
}

// request is one HTTP request of a workload: a single POST /v1/verify or a
// batch POST /v1/verify/batch, with the ids of the specs it answers.
type request struct {
	batch bool
	body  []byte
	ids   []int
}

// inputs is everything a workload sends, generated from the seed before
// lrserved starts: lrserved only ever sees the spec text.
type inputs struct {
	specs []spec
	warm  []request // sent once before the timed phases (hot-resubmit's hot set)
	reqs  []request // the request stream, in the order it is sent
}

func singleBody(src string, o options) []byte {
	b, err := json.Marshal(struct {
		Spec    string  `json:"spec"`
		Options options `json:"options"`
		Wait    bool    `json:"wait"`
	}{src, o, true})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return b
}

func batchBody(srcs []string, o options) []byte {
	b, err := json.Marshal(struct {
		Specs   []string `json:"specs"`
		Options options  `json:"options"`
		Wait    bool     `json:"wait"`
	}{srcs, o, true})
	if err != nil {
		panic(err)
	}
	return b
}

// shape is a protocol shape handed to protogen.Sweep.
type shape struct{ domain, lo, hi, movePercent int }

// sweepSpecs returns the variants of one sweep family (the base, which has
// no actions, is dropped).
func sweepSpecs(seed int64, name string, sh shape, variants int) ([]protogen.SweepSpec, error) {
	sw := protogen.Sweep{Seed: seed, Families: []protogen.SweepFamily{{
		Name: name, Domain: sh.domain, Lo: sh.lo, Hi: sh.hi,
		Variants: variants, MovePercent: sh.movePercent,
	}}}
	out, err := sw.Specs()
	if err != nil {
		return nil, err
	}
	return out[1:], nil
}

// parallel runs fn(i) for i in [0, n) on GOMAXPROCS goroutines and returns
// the first error by index.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// paperSpecs reads the shipped specs/*.gc in name order.
func paperSpecs(root string) ([]spec, error) {
	paths, err := filepath.Glob(filepath.Join(root, "specs", "*.gc"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no specs/*.gc under %s", root)
	}
	sort.Strings(paths)
	var out []spec
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, spec{name: strings.TrimSuffix(filepath.Base(p), ".gc"), source: string(data)})
	}
	return out, nil
}

// Hot-resubmit: a 64-spec hot set, requested with Zipf popularity; a share
// of the requests are reformatted copies.
const (
	hotSweepFamilies = 7
	hotSweepVariants = 8
	hotZipfS         = 1.1
	hotReformatShare = 0.10
)

// hotShapes are the sweep family shapes of the hot set, one per family.
var hotShapes = []shape{
	{2, -1, 0, 40}, {2, -1, 1, 40}, {2, 0, 1, 40}, {3, -1, 0, 40},
	{3, -1, 1, 40}, {3, 0, 1, 40}, {2, -1, 1, 70},
}

// poolSeed draws the protocol pools of hot-resubmit and invariant-lp. It is
// fixed, so every run requests the same mix of work and the run seed only
// orders and reformats the requests.
const poolSeed = 20120612

func hotInputs(root string, seed int64, n int) (*inputs, error) {
	in := &inputs{}
	paper, err := paperSpecs(root)
	if err != nil {
		return nil, err
	}
	in.specs = append(in.specs, paper...)
	for f := 0; f < hotSweepFamilies; f++ {
		vs, err := sweepSpecs(poolSeed, fmt.Sprintf("hot%d", f), hotShapes[f], hotSweepVariants)
		if err != nil {
			return nil, err
		}
		for _, v := range vs {
			in.specs = append(in.specs, spec{name: v.Name, source: v.Source})
		}
	}
	bodies := make([][]byte, len(in.specs))
	for id, s := range in.specs {
		bodies[id] = singleBody(s.source, s.opts)
		in.warm = append(in.warm, request{body: bodies[id], ids: []int{id}})
	}

	// Popularity: Zipf over a fixed ranking of the hot set.
	rank := rand.New(rand.NewSource(poolSeed)).Perm(len(in.specs))
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(len(in.specs)-1))
	in.reqs = make([]request, n)
	for i := range in.reqs {
		id := rank[zipf.Uint64()]
		body := bodies[id]
		if rng.Float64() < hotReformatShare {
			// A fresh reformatting per request: the raw-text alias index
			// misses and the spec cache's canonical path runs.
			src := in.specs[id].source
			if rng.Intn(2) == 0 {
				src = fmt.Sprintf("# resubmission %d\n%s", i, src)
			} else {
				src = strings.Repeat("\n", 1+i%64) + src
			}
			body = singleBody(src, in.specs[id].opts)
		}
		in.reqs[i] = request{body: body, ids: []int{id}}
	}
	return in, nil
}

// familyOf returns the lines of a sweep spec that fix its family — domain,
// window and the legitimacy predicate, which protogen.Sweep renders from
// the legitimacy bitset in a fixed order — so equal results mean equal
// corpus.FamilyKey.
func familyOf(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(line, "domain ") || strings.HasPrefix(line, "window ") || strings.HasPrefix(line, "legit ") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// freshFamilies generates n sweep families, family i named name(i, 0) and
// shaped by shapeOf(i), each spawning variants specs. A family whose
// legitimacy predicate an earlier family already drew is redrawn under
// name(i, 1), name(i, 2), ... so no two families share a corpus.FamilyKey
// and the per-family memo can never hit across them.
func freshFamilies(seed int64, n, variants int, shapeOf func(i int) shape, name func(i, attempt int) string) ([][]protogen.SweepSpec, error) {
	out := make([][]protogen.SweepSpec, n)
	if err := parallel(n, func(i int) (err error) {
		out[i], err = sweepSpecs(seed, name(i, 0), shapeOf(i), variants)
		return err
	}); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for i := range out {
		for attempt := 1; seen[familyOf(out[i][0].Source)]; attempt++ {
			var err error
			if out[i], err = sweepSpecs(seed, name(i, attempt), shapeOf(i), variants); err != nil {
				return nil, err
			}
		}
		seen[familyOf(out[i][0].Source)] = true
	}
	return out, nil
}

// coldXval is the cross-validation bound of cold-durable and batch-cluster
// requests.
const coldXval = 6

// coldShapes read the predecessor only, over a domain whose 2^16
// legitimacy bitsets leave room for a fresh family per spec; they differ
// in how many local states move. Wider windows are left out: there
// Theorem 5.14 proves contiguous livelock-freedom only, and lrserved
// reports a cross-validation that finds a non-contiguous livelock as a
// disagreement, which the oracle counts as a failure (see README.md).
var coldShapes = [2]shape{{4, -1, 0, 40}, {4, -1, 0, 70}}

func coldInputs(seed int64, n int) (*inputs, error) {
	fams, err := freshFamilies(seed, n, 1,
		func(i int) shape { return coldShapes[i%2] },
		func(i, attempt int) string { return fmt.Sprintf("cold%06d-%d", i, attempt) })
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	for id, f := range fams {
		s := spec{name: f[0].Name, source: f[0].Source, opts: options{CrossValidateMaxK: coldXval}}
		in.specs = append(in.specs, s)
		in.reqs = append(in.reqs, request{body: singleBody(s.source, s.opts), ids: []int{id}})
	}
	return in, nil
}

// invPoolSpec is one member of the invariant-lp pool.
type invPoolSpec struct {
	name   string
	source string
}

// invPool is the invariant-lp protocol pool: sweep protocols of two shapes
// plus the paper's LP-heavy matching protocols and MIS. matchingA, the
// heaviest LP, is in it twice (renamed apart): with 13 members, 2 of them
// matchingA, the median falls inside one member's latencies and p90 inside
// matchingA's, not on the boundary between two members.
func invPool(root string) ([]invPoolSpec, error) {
	var pool []invPoolSpec
	for _, fam := range []struct {
		name  string
		sh    shape
		count int
	}{
		{"lpd3", shape{3, -1, 1, 70}, 7},
		{"lpd4", shape{4, -1, 0, 70}, 2},
	} {
		vs, err := sweepSpecs(poolSeed, fam.name, fam.sh, fam.count)
		if err != nil {
			return nil, err
		}
		for _, v := range vs {
			pool = append(pool, invPoolSpec{v.Name, v.Source})
		}
	}
	for _, n := range []string{"matchingA", "mis"} {
		data, err := os.ReadFile(filepath.Join(root, "specs", n+".gc"))
		if err != nil {
			return nil, err
		}
		pool = append(pool, invPoolSpec{n, string(data)})
	}
	data, err := testdata.ReadFile("testdata/matchingB.gc")
	if err != nil {
		return nil, err
	}
	pool = append(pool, invPoolSpec{"matchingB", string(data)})
	a := pool[len(pool)-3]
	return append(pool, invPoolSpec{"matchingA2", rename(a.source, a.name, "matchingA2")}), nil
}

// rename gives a spec a new protocol name, which changes its canonical text
// and so defeats both the result cache and the compiled-spec cache.
func rename(src, from, to string) string {
	return strings.Replace(src, "protocol "+from+"\n", "protocol "+to+"\n", 1)
}

// invInputs sends blocks that each hold every member of invPool once,
// renamed apart and shuffled, so every run sends the same mix of LP sizes
// whatever its seed. n is rounded up to whole blocks.
func invInputs(root string, seed int64, n int) (*inputs, error) {
	pool, err := invPool(root)
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	rng := rand.New(rand.NewSource(seed))
	for block := 0; len(in.specs) < n; block++ {
		for _, k := range rng.Perm(len(pool)) {
			p := pool[k]
			name := fmt.Sprintf("%s-s%d-b%d", p.name, seed, block)
			src := rename(p.source, p.name, name)
			if src == p.source {
				return nil, fmt.Errorf("invariant-lp: could not rename %s", p.name)
			}
			s := spec{name: name, source: src, opts: options{Invariant: true}}
			in.reqs = append(in.reqs, request{body: singleBody(s.source, s.opts), ids: []int{len(in.specs)}})
			in.specs = append(in.specs, s)
		}
	}
	return in, nil
}

// batchSize is the number of specs per batch-cluster request.
const batchSize = 64

// batchShape is the shape of every batch family (the cold shapes' first).
var batchShape = coldShapes[0]

func batchInputs(seed int64, n int) (*inputs, error) {
	fams, err := freshFamilies(seed, n, batchSize,
		func(int) shape { return batchShape },
		func(i, attempt int) string { return fmt.Sprintf("batch%05d-%d", i, attempt) })
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	o := options{CrossValidateMaxK: coldXval}
	for _, vs := range fams {
		srcs := make([]string, len(vs))
		ids := make([]int, len(vs))
		for i, v := range vs {
			ids[i] = len(in.specs)
			srcs[i] = v.Source
			in.specs = append(in.specs, spec{name: v.Name, source: v.Source, opts: o})
		}
		in.reqs = append(in.reqs, request{batch: true, body: batchBody(srcs, o), ids: ids})
	}
	return in, nil
}
