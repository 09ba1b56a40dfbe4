package pipeline

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"gocured"
	"gocured/internal/infer"
	"gocured/internal/store"
)

// Key is the content address of one compile job: the SHA-256 of the
// compiler version, the file name, the inference options, and the source
// text. Two jobs with equal keys are guaranteed to produce the same
// Program, so the cache can hand the compiled artifact to both.
type Key [sha256.Size]byte

// String renders a short hex prefix for logs and metrics.
func (k Key) String() string { return hex.EncodeToString(k[:8]) }

// CacheKey computes the content address for a compile job.
func CacheKey(filename, source string, opts gocured.Options) Key {
	h := sha256.New()
	// Length-prefix each variable-size component so concatenations cannot
	// collide; Options is a flat struct of bools with a stable rendering.
	fmt.Fprintf(h, "%s\x00%d:%s\x00%+v\x00%d:", gocured.Version, len(filename), filename, opts, len(source))
	// Hash the source in place: Write only reads its argument, and a
	// []byte(source) conversion would copy the whole text per request.
	h.Write(unsafe.Slice(unsafe.StringData(source), len(source)))
	var k Key
	h.Sum(k[:0])
	return k
}

// Compiled is a cached compilation artifact: the Program itself plus the
// statistics and rendered diagnostics, memoized so cache hits skip the
// qualifier-graph walk too.
type Compiled struct {
	Key         Key
	Filename    string
	Program     *gocured.Program
	Stats       gocured.Stats
	Diagnostics []string
	// Incr reports how inference composed the program: functions replayed
	// from the artifact store vs. re-collected (all recured without one).
	Incr gocured.IncrStats
	// StoreReadMS/StoreWriteMS aggregate the wall time this compile spent
	// in artifact-store I/O (summary loads and saves); StoreReads and
	// StoreWrites count the operations. On a cache hit they describe the
	// original compile (store I/O is interleaved with inference, so these
	// are aggregates, not a per-chunk span list).
	StoreReadMS  float64
	StoreWriteMS float64
	StoreReads   int
	StoreWrites  int
	// SourceBytes is the size of the source text, retained for the cache
	// size accounting after the source itself is dropped.
	SourceBytes int
}

// Lookup reports how one GetOrCompile call was served: the cache tier and
// whether the caller paid for a compile.
type Lookup struct {
	// Tier is "memory" (LRU hit), "inflight" (coalesced onto another
	// goroutine's in-progress compile of the same key), "disk" (compiled,
	// but with at least one function replayed from the artifact store), or
	// "compile" (compiled from scratch).
	Tier string
	// Hit reports that no compile ran on this call (memory or inflight).
	Hit bool
}

// lookupFor classifies a freshly-compiled (non-hit) result by whether the
// artifact store contributed.
func lookupFor(c *Compiled) Lookup {
	if c != nil && c.Incr.Loaded > 0 {
		return Lookup{Tier: "disk"}
	}
	return Lookup{Tier: "compile"}
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	Entries    int    `json:"entries"`
	MaxEntries int    `json:"max_entries"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
}

// Cache is a bounded, content-addressed memoization of Compile results
// with LRU eviction. Lookups that race on the same missing key coalesce:
// one goroutine compiles, the rest wait for its result (a thundering herd
// of identical sources costs one compile). It is safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used; values are *Compiled
	entries  map[Key]*list.Element
	inflight map[Key]*call[*Compiled]
	// arts, when non-nil, is the second cache tier: a memory miss consults
	// the persistent artifact store for per-function summaries before
	// falling back to a full compile.
	arts *store.Artifacts
	// wrapSums, when non-nil, decorates the summary source each compile
	// sees; the fault-injection harness uses it to wedge the artifact store.
	wrapSums func(gocured.SummarySource) gocured.SummarySource

	hits, misses, evictions uint64
}

// NewCache returns a cache bounded to max entries (max <= 0 means the
// DefaultCacheEntries bound).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &Cache{
		max:      max,
		ll:       list.New(),
		entries:  make(map[Key]*list.Element),
		inflight: make(map[Key]*call[*Compiled]),
	}
}

// DefaultCacheEntries bounds the cache when no explicit size is given.
const DefaultCacheEntries = 256

// SetStore attaches a persistent artifact store as the cache's second tier
// (memory LRU → disk chunks → compile). Set before use; not synchronized.
func (c *Cache) SetStore(a *store.Artifacts) { c.arts = a }

// GetOrCompile returns the Compiled artifact for (filename, source, opts),
// compiling at most once per content address. The Lookup return reports
// which tier served the result (memory LRU, coalescing onto another
// goroutine's in-flight compile of the same key, the on-disk artifact
// store, or a from-scratch compile). Compile errors are returned, not
// cached: the next identical request retries.
func (c *Cache) GetOrCompile(filename, source string, opts gocured.Options) (*Compiled, Lookup, error) {
	return c.getOrCompileKey(CacheKey(filename, source, opts), filename, source, opts)
}

// getOrCompileKey is GetOrCompile for a caller that already holds the
// job's CacheKey (the Runner hashes each request's source once).
func (c *Cache) getOrCompileKey(key Key, filename, source string, opts gocured.Options) (*Compiled, Lookup, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*Compiled), Lookup{Tier: "memory", Hit: true}, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-f.done
		return f.res, Lookup{Tier: "inflight", Hit: true}, f.err
	}
	c.misses++
	f := newCall[*Compiled](nil)
	c.inflight[key] = f
	c.mu.Unlock()

	res, err := compileSource(key, filename, source, opts, c.arts, c.wrapSums)
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.insertLocked(key, res)
	}
	c.mu.Unlock()
	f.finish(res, err)
	return res, lookupFor(res), err
}

// compileSource builds the artifact outside the cache lock. A panic in the
// compiler is converted into an error so that callers waiting on this
// compile are released (the Runner additionally isolates panics per job).
// wrap, when non-nil, is the fault-injection decorator of the summary
// source; it sits inside the timing layer, so a wedged store's stall time
// shows up in the store-read/store-write spans exactly where a genuinely
// hung disk would.
func compileSource(key Key, filename, source string, opts gocured.Options, arts *store.Artifacts,
	wrap func(gocured.SummarySource) gocured.SummarySource) (res *Compiled, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("compile %s: panic: %v", filename, p)
		}
	}()
	var sums gocured.SummarySource
	var timed *timedSums
	if arts != nil {
		src := gocured.SummarySource(arts.ForOptions(opts))
		if wrap != nil {
			if w := wrap(src); w != nil {
				src = w
			}
		}
		timed = &timedSums{src: src}
		sums = timed
	} else if wrap != nil {
		if w := wrap(nil); w != nil {
			timed = &timedSums{src: w}
			sums = timed
		}
	}
	prog, err := gocured.CompileStored(filename, source, opts, sums)
	if err != nil {
		return nil, err
	}
	res = &Compiled{
		Key:         key,
		Filename:    filename,
		Program:     prog,
		Stats:       prog.Stats(),
		Diagnostics: prog.Diagnostics(),
		Incr:        prog.IncrStats(),
		SourceBytes: len(source),
	}
	if timed != nil {
		res.StoreReadMS = float64(timed.loadNS.Load()) / 1e6
		res.StoreWriteMS = float64(timed.saveNS.Load()) / 1e6
		res.StoreReads = int(timed.loadOps.Load())
		res.StoreWrites = int(timed.saveOps.Load())
	}
	return res, nil
}

// timedSums decorates a SummarySource with wall-time and op-count
// accounting, the source of a compile's store-read/store-write spans and
// phase histograms. Counters are atomics: nothing guarantees inference
// keeps the source on one goroutine forever.
type timedSums struct {
	src             gocured.SummarySource
	loadNS, loadOps atomic.Int64
	saveNS, saveOps atomic.Int64
}

func (t *timedSums) Load(fn string, body, decls [sha256.Size]byte) (*infer.FuncSummary, bool) {
	start := time.Now()
	sum, ok := t.src.Load(fn, body, decls)
	t.loadNS.Add(int64(time.Since(start)))
	t.loadOps.Add(1)
	return sum, ok
}

func (t *timedSums) Save(sum *infer.FuncSummary, fn string, body, decls [sha256.Size]byte) {
	start := time.Now()
	t.src.Save(sum, fn, body, decls)
	t.saveNS.Add(int64(time.Since(start)))
	t.saveOps.Add(1)
}

func (c *Cache) insertLocked(key Key, res *Compiled) {
	if _, ok := c.entries[key]; ok {
		return // a racing compile already inserted it
	}
	c.entries[key] = c.ll.PushFront(res)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*Compiled).Key)
		c.evictions++
	}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:    c.ll.Len(),
		MaxEntries: c.max,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
	}
}
