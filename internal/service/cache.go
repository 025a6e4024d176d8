package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// cacheKey content-addresses a verification: the canonical dsl.Format
// rendering of the spec plus the normalized option set. Anything that
// cannot change the verdict — whitespace, comments, parenthesization, the
// Workers hint, the per-request deadline — is erased from both inputs, so
// textual variants of one protocol share a cache line and resource knobs
// never fragment it.
func cacheKey(canonicalSpec string, opts RequestOptions) string {
	o := opts.Normalize()
	// The hashed bytes are built in one buffer, on the stack for specs of
	// ordinary size, and hashed with one Sum256: every submission, cache
	// hits included, computes a key.
	var stack [1024]byte
	b := append(append(stack[:0], canonicalSpec...), 0)
	// Invariant changes the lane set and therefore the result payload, so
	// it must fragment the cache: an invariant-on and an invariant-off
	// submission of the same spec may never collide on one entry.
	b = strconv.AppendInt(append(b, "confirm="...), int64(o.ConfirmMaxK), 10)
	b = strconv.AppendInt(append(b, " xval="...), int64(o.CrossValidateMaxK), 10)
	b = strconv.AppendInt(append(b, " fallback="...), int64(o.BoundedFallbackMaxK), 10)
	b = strconv.AppendInt(append(b, " tarcs="...), int64(o.MaxTArcs), 10)
	b = strconv.AppendBool(append(b, " inv="...), o.Invariant)
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// resultCache is a size-bounded in-memory LRU of verification results,
// optionally write-through persisted to one append-only log under dir,
// results.log, one line per Put:
//
//	{"key":"<64 hex digits>","result":{...}}
//
// An index maps each key to the offset and length of its latest line, so
// a memory miss costs one ReadAt when the key was ever stored and no I/O
// when it was not. Memory eviction never touches the log, so a key
// evicted under pressure (or a fresh process pointed at the same
// -cache-dir) is re-served from disk instead of re-verified. The log is
// never compacted: a key's superseded lines stay behind. Keys are
// cacheKey's hex digests; the index holds the 32 bytes they spell.
type resultCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element
	log   *logFile // nil without dir
	index map[digest]logSpan
}

type digest [sha256.Size]byte

type logSpan struct {
	off int64
	n   int
}

type cacheItem struct {
	key string
	res *Result
}

// A results.log line is resultLinePrefix, the key in hex, resultLineMid,
// the Result's JSON and "}\n": the key sits at a fixed offset, so the
// index is built without decoding a single result.
const (
	resultLinePrefix = `{"key":"`
	resultLineMid    = `","result":`
	resultBodyOff    = len(resultLinePrefix) + 2*sha256.Size + len(resultLineMid)
)

func newResultCache(maxEntries int, dir string) (*resultCache, error) {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	c := &resultCache{
		max:   maxEntries,
		order: list.New(),
		items: make(map[string]*list.Element),
		index: make(map[digest]logSpan),
	}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: cache dir: %w", err)
	}
	// A line that does not parse is left in place and never indexed; a
	// torn last line is cut. No result is decoded until a Get asks for it.
	log, err := openLog(filepath.Join(dir, "results.log"), false, func(line []byte, off int64) bool {
		d, _, ok := parseResultLine(line)
		if ok {
			c.index[d] = logSpan{off: off, n: len(line)}
		}
		return ok
	})
	if err != nil {
		return nil, fmt.Errorf("service: result log: %w", err)
	}
	c.log = log
	return c, nil
}

// parseResultLine splits a whole results.log line into its key and the
// Result's JSON, which it does not decode.
func parseResultLine(line []byte) (d digest, body []byte, ok bool) {
	if len(line) < resultBodyOff+2 ||
		string(line[:len(resultLinePrefix)]) != resultLinePrefix ||
		string(line[resultBodyOff-len(resultLineMid):resultBodyOff]) != resultLineMid ||
		string(line[len(line)-2:]) != "}\n" {
		return d, nil, false
	}
	if _, err := hex.Decode(d[:], line[len(resultLinePrefix):resultBodyOff-len(resultLineMid)]); err != nil {
		return d, nil, false
	}
	return d, line[resultBodyOff : len(line)-2], true
}

// digestOf is the 32 bytes a key names: the content address a cacheKey
// spells in hex, or the SHA-256 of any other string.
func digestOf(key string) digest {
	var d digest
	if len(key) == hex.EncodedLen(len(d)) {
		if _, err := hex.Decode(d[:], []byte(key)); err == nil {
			return d
		}
	}
	return sha256.Sum256([]byte(key))
}

// Get returns the cached result for key, consulting memory first and then
// the log. A log hit is promoted into memory.
func (c *resultCache) Get(key string) (*Result, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		res := el.Value.(*cacheItem).res
		c.mu.Unlock()
		return res, true
	}
	d := digestOf(key)
	sp, ok := c.index[d]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	line := make([]byte, sp.n)
	if err := c.log.readAt(line, sp.off); err != nil {
		return nil, false
	}
	var res Result
	if got, body, ok := parseResultLine(line); !ok || got != d || json.Unmarshal(body, &res) != nil {
		return nil, false // corrupt entry: a miss, and the next Put supersedes it
	}
	c.insert(key, &res)
	return &res, true
}

// Put stores the result in memory (evicting the least recently used entry
// past the bound) and appends it to the log when configured.
func (c *resultCache) Put(key string, res *Result) error {
	c.insert(key, res)
	if c.log == nil {
		return nil
	}
	body, err := json.Marshal(res)
	if err != nil {
		return err
	}
	d := digestOf(key)
	line := make([]byte, 0, resultBodyOff+len(body)+2)
	line = append(line, resultLinePrefix...)
	line = hex.AppendEncode(line, d[:])
	line = append(line, resultLineMid...)
	line = append(append(line, body...), "}\n"...)
	off, err := c.log.write(line)
	if err != nil {
		return err
	}
	c.mu.Lock()
	// Concurrent Puts of one key may get here out of order: the line
	// further into the log is the later one.
	if cur, ok := c.index[d]; !ok || cur.off < off {
		c.index[d] = logSpan{off: off, n: len(line)}
	}
	c.mu.Unlock()
	return nil
}

func (c *resultCache) insert(key string, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).res = res
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheItem{key: key, res: res})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheItem).key)
	}
}

// Len returns the number of in-memory entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// close releases the log; later Gets are served from memory only and
// later Puts fail to persist.
func (c *resultCache) close() {
	if c.log != nil {
		c.log.close()
	}
}
