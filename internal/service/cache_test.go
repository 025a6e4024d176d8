package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func testResult(name string) *Result {
	return &Result{Protocol: name, Deadlock: "proved", Livelock: "proved", Summary: name}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := newResultCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), testResult(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 should have been evicted as least recently used")
	}
	for _, k := range []string{"k1", "k2"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	// Touching k1 makes k2 the eviction victim.
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("k1 missing")
	}
	if err := c.Put("k3", testResult("r3")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k2"); ok {
		t.Fatal("k2 should have been evicted after k1 was touched")
	}
}

func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c1, err := newResultCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testResult("persisted")
	if err := c1.Put("key", want); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory (a restarted process) serves
	// the entry from disk and promotes it into memory.
	c2, err := newResultCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("key")
	if !ok {
		t.Fatal("disk tier miss")
	}
	if got.Protocol != want.Protocol || got.Summary != want.Summary {
		t.Fatalf("disk round-trip mangled the result: %+v", got)
	}
	if c2.Len() != 1 {
		t.Fatalf("disk hit not promoted to memory: Len = %d", c2.Len())
	}
}

func TestCacheKeyIgnoresNonSemanticOptions(t *testing.T) {
	spec := "protocol p\ndomain 2\nwindow 0 1\nlegit x[0] == x[1]\n"
	if cacheKey(spec, RequestOptions{}) != cacheKey(spec, RequestOptions{ConfirmMaxK: 7, MaxTArcs: 16}) {
		t.Fatal("explicit defaults must hash like omitted options")
	}
	if cacheKey(spec, RequestOptions{}) == cacheKey(spec, RequestOptions{CrossValidateMaxK: 4}) {
		t.Fatal("cross-validation depth must be part of the key")
	}
	if cacheKey(spec, RequestOptions{}) == cacheKey(spec+" ", RequestOptions{}) {
		t.Fatal("different canonical text must not collide")
	}
	// The Workers execution hint changes how a verification runs, never
	// what it concludes, so it must hash like the zero options. (The other
	// verdict-irrelevant knob, the per-request deadline, lives on Request
	// and never reaches cacheKey at all.)
	base := cacheKey(spec, RequestOptions{})
	for _, opts := range []RequestOptions{
		{Workers: 1},
		{Workers: 8},
		{Workers: -3},
	} {
		if cacheKey(spec, opts) != base {
			t.Fatalf("options %+v fragmented the cache key", opts)
		}
	}
}

// resultKey returns a content address shaped like cacheKey's.
func resultKey(name string) string {
	return cacheKey(name, RequestOptions{})
}

func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("result = %s, want %s", gb, wb)
	}
}

// TestResultLogLaterPutWins: the index holds a key's latest line, in the
// process that wrote it and after a reopen.
func TestResultLogLaterPutWins(t *testing.T) {
	dir := t.TempDir()
	key := resultKey("p")
	c1, err := newResultCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"first", "second"} {
		if err := c1.Put(key, testResult(name)); err != nil {
			t.Fatal(err)
		}
	}
	// Evict key from memory so the next Get reads the log.
	if err := c1.Put(resultKey("other"), testResult("other")); err != nil {
		t.Fatal(err)
	}
	got, ok := c1.Get(key)
	if !ok {
		t.Fatal("log miss")
	}
	sameResult(t, got, testResult("second"))
	c1.close()

	c2, err := newResultCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.close()
	got, ok = c2.Get(key)
	if !ok {
		t.Fatal("log miss after reopen")
	}
	sameResult(t, got, testResult("second"))
}

// TestResultLogCutsTornTail: a line torn by a crash mid-write is cut at
// open, so the next Put starts a line of its own and is served after the
// next reopen.
func TestResultLogCutsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.log")
	c1, err := newResultCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(resultKey("a"), testResult("a")); err != nil {
		t.Fatal(err)
	}
	c1.close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"` + resultKey("b") + `","result":{"protocol":"b"`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := newResultCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if fi2, err := os.Stat(path); err != nil || fi2.Size() != fi.Size() {
		t.Fatalf("log after open with a torn tail: %v, %v; want the tail cut back to %d bytes", fi2.Size(), err, fi.Size())
	}
	if _, ok := c2.Get(resultKey("b")); ok {
		t.Fatal("torn line served")
	}
	if err := c2.Put(resultKey("c"), testResult("c")); err != nil {
		t.Fatal(err)
	}
	c2.close()

	c3, err := newResultCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.close()
	for _, name := range []string{"a", "c"} {
		got, ok := c3.Get(resultKey(name))
		if !ok {
			t.Fatalf("%s missing after reopen", name)
		}
		sameResult(t, got, testResult(name))
	}
}

// TestResultLogFailedWriteDoesNotTakeNextPut: a write that fails after k
// bytes, for every k across one line, must neither glue its partial line
// to the next Put's nor shift the offsets the index records.
func TestResultLogFailedWriteDoesNotTakeNextPut(t *testing.T) {
	body, err := json.Marshal(testResult("torn"))
	if err != nil {
		t.Fatal(err)
	}
	lineLen := resultBodyOff + len(body) + 2
	for k := 0; k < lineLen; k++ {
		dir := t.TempDir()
		c1, err := newResultCache(1, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := c1.Put(resultKey("first"), testResult("first")); err != nil {
			t.Fatal(err)
		}
		c1.log.writeFn = failAfter(k)
		if err := c1.Put(resultKey("torn"), testResult("torn")); err == nil {
			t.Fatalf("k=%d: the injected failure was not reported", k)
		}
		c1.log.writeFn = nil
		for _, name := range []string{"next", "last"} {
			if err := c1.Put(resultKey(name), testResult(name)); err != nil {
				t.Fatalf("k=%d: Put after a failed write: %v", k, err)
			}
		}
		// "last" holds the one memory slot: "next" is read from the log.
		if got, ok := c1.Get(resultKey("next")); !ok {
			t.Fatalf("k=%d: Put after a failed write not served from the log", k)
		} else {
			sameResult(t, got, testResult("next"))
		}
		c1.close()

		c2, err := newResultCache(8, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"first", "next", "last"} {
			got, ok := c2.Get(resultKey(name))
			if !ok {
				t.Fatalf("k=%d: %s not served after reopen", k, name)
			}
			sameResult(t, got, testResult(name))
		}
		c2.close()
	}
}

// TestResultLogCreatedLazily: opening a cache dir creates no file, a Get
// for a key the log never held reads no file — not even a result file an
// older version left under the key's name — and the first Put creates
// results.log.
func TestResultLogCreatedLazily(t *testing.T) {
	dir := t.TempDir()
	key := resultKey("old")
	old, err := json.Marshal(testResult("old"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key+".json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := newResultCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if _, ok := c.Get(key); ok {
		t.Fatal("Get served a result file the log never held")
	}
	if _, err := os.Stat(filepath.Join(dir, "results.log")); !os.IsNotExist(err) {
		t.Fatalf("results.log exists before the first Put (stat: %v)", err)
	}
	if err := c.Put(key, testResult("new")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "results.log")); err != nil {
		t.Fatalf("first Put did not create results.log: %v", err)
	}
}

// resultLine is the independent shape of an indexed results.log line.
var resultLine = regexp.MustCompile(`^\{"key":"([0-9a-fA-F]{64})","result":(.*)\}\n$`)

// FuzzResultLogOpen: arbitrary log bytes never panic the loader; every
// whole line shaped like a result line is indexed, the latest per key
// winning; a torn tail is cut; a Get of each indexed key serves exactly
// what its line decodes to; and a Put after the open is served intact
// after a reopen.
func FuzzResultLogOpen(f *testing.F) {
	line := func(name string, res *Result) string {
		body, _ := json.Marshal(res)
		return `{"key":"` + resultKey(name) + `","result":` + string(body) + "}\n"
	}
	a, b := line("a", testResult("a")), line("b", testResult("b"))
	f.Add([]byte(a + b))
	f.Add([]byte(a + b[:40]))                                            // torn tail
	f.Add([]byte(a + "garbage\x00line\n" + b))                           // garbage middle line
	f.Add([]byte(a + b[:70] + b))                                        // a line glued after a partial write
	f.Add([]byte(a + line("a", testResult("a2")) + b))                   // duplicate keys
	f.Add([]byte(line("big", testResult(strings.Repeat("&", 190_000))))) // a 1.14 MB line
	f.Add([]byte(`{"key":"` + resultKey("x") + `","result":not json}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "results.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := newResultCache(8, dir)
		if err != nil {
			t.Fatal(err)
		}
		want := map[digest]logSpan{}
		var off int64
		for _, l := range bytes.SplitAfter(data, []byte{'\n'}) {
			if m := resultLine.FindSubmatch(l); m != nil {
				var d digest
				hex.Decode(d[:], m[1])
				want[d] = logSpan{off: off, n: len(l)}
			}
			off += int64(len(l))
		}
		if !reflect.DeepEqual(c.index, want) {
			t.Fatalf("index = %v, want %v", c.index, want)
		}
		whole := int64(bytes.LastIndexByte(data, '\n') + 1)
		if fi, err := os.Stat(path); err != nil || fi.Size() != whole {
			t.Fatalf("log is %d bytes after open (%v), want the torn tail cut to %d", fi.Size(), err, whole)
		}
		for d, sp := range want {
			key := hex.EncodeToString(d[:])
			var res Result
			wantHit := json.Unmarshal(resultLine.FindSubmatch(data[sp.off : sp.off+int64(sp.n)])[2], &res) == nil
			got, ok := c.Get(key)
			if ok != wantHit {
				t.Fatalf("Get(%s) hit = %t, want %t", key, ok, wantHit)
			}
			if ok {
				sameResult(t, got, &res)
			}
		}
		put := testResult("fuzz")
		if err := c.Put(resultKey("fuzz"), put); err != nil {
			t.Fatal(err)
		}
		c.close()
		c2, err := newResultCache(8, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.close()
		got, ok := c2.Get(resultKey("fuzz"))
		if !ok {
			t.Fatal("Put after open not served after reopen")
		}
		sameResult(t, got, put)
	})
}

// BenchmarkResultLogOpen is the start-up cost of indexing results.log:
// the index reads each line's key at its fixed offset and decodes no
// result. Lines carry a Result of about 400 bytes, the size of a
// cross-validated sweep verdict.
func BenchmarkResultLogOpen(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			c, err := newResultCache(1, dir)
			if err != nil {
				b.Fatal(err)
			}
			res := testResult("bench")
			res.Summary = strings.Repeat("s", 300)
			for i := 0; i < n; i++ {
				if err := c.Put(resultKey(fmt.Sprint(i)), res); err != nil {
					b.Fatal(err)
				}
			}
			c.close()
			fi, err := os.Stat(filepath.Join(dir, "results.log"))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := newResultCache(1, dir)
				if err != nil {
					b.Fatal(err)
				}
				if len(c.index) != n {
					b.Fatalf("indexed %d lines, want %d", len(c.index), n)
				}
				c.close()
			}
			b.ReportMetric(float64(fi.Size())/float64(n), "B/line")
		})
	}
}
