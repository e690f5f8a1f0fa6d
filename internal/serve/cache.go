package serve

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"sinrcast/internal/faultinject"
	"sinrcast/internal/network"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// Cache is the content-addressed warm-engine cache behind the run-job
// path. A key canonically identifies a deployment and its physics —
// cacheKey composes scenario.Spec.String(), sinr.EngineKey, and the
// seed — so two requests for the same key are guaranteed the same
// topology slabs and byte-identical Resolve output.
//
// A miss pays the full setup once: scenario generation plus engine
// construction. The built engine becomes an immutable prototype that
// is never handed out; every request — the missing one included —
// receives a clone (sinr.CloneResolver, ~hundreds of nanoseconds,
// sharing the prototype's topology). Engines the sinr package cannot
// clone (wrapper channels with per-trial state, foreign resolvers)
// degrade gracefully: the network is still cached, and each request
// builds a fresh engine over it.
//
// Concurrent misses on one key collapse to a single build
// (singleflight): the first caller constructs, the rest wait on its
// flight and leave with clones.
//
// Residency is segmented. A freshly built entry enters a probation
// list capped at probationCap entries; its first hit promotes it into
// the main LRU. A stream of one-shot keys (fresh seeds never asked for
// again) therefore pins at most probationCap deployments instead of
// filling the whole budget, while any key requested twice stays
// resident as before. Entries are evicted against a byte budget
// estimated from station and edge counts, draining older probationers
// before the main LRU and never the entry being inserted, so a new key
// displaces the least-recently-used promoted entry when it must.
type Cache struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	probation *list.List // of *cacheEntry never hit since insertion, front = newest
	lru       *list.List // of *cacheEntry hit at least once, front = most recent
	entries   map[string]*list.Element
	flights   map[string]*flight

	// neg is the per-key circuit breaker: repeated build failures open
	// a negative entry with a TTL, so a poisoned spec fast-fails
	// instead of triggering a rebuild storm. See CircuitOpenError.
	neg              map[string]*negEntry
	breakerThreshold int
	breakerTTL       time.Duration

	hits      int64
	misses    int64
	evictions int64
	trips     int64
	fastFails int64
}

// negEntry tracks consecutive build failures for one key. Once
// failures reaches the threshold the breaker opens until the deadline;
// past the deadline the next Get is a half-open probe — one more
// failure re-opens immediately, a success resets the key.
type negEntry struct {
	failures int
	until    time.Time
	cause    error
}

// Breaker defaults: three consecutive build failures open the key for
// thirty seconds.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerTTL       = 30 * time.Second
)

// CircuitOpenError fast-fails a Get (and, at the transport, a submit)
// for a key whose builds keep failing. Transports map it to HTTP 422.
type CircuitOpenError struct {
	Key   string
	Until time.Time
	Cause error
}

func (e *CircuitOpenError) Error() string {
	return fmt.Sprintf("serve: circuit open for %q until %s after repeated build failures: %v",
		e.Key, e.Until.UTC().Format(time.RFC3339), e.Cause)
}

func (e *CircuitOpenError) Unwrap() error { return e.Cause }

type cacheEntry struct {
	key       string
	net       *network.Network
	proto     sim.Resolver // the built engine; cloned per request, never handed out
	bytes     int64
	probation bool // resident on the probation list, not yet hit
}

// probationCap bounds the never-hit entries the cache keeps resident.
const probationCap = 64

type flight struct {
	done chan struct{}
	ent  *cacheEntry
	err  error
}

// DefaultCacheBytes is the byte budget used when Config.CacheBytes is
// zero: enough for a few dozen mid-size deployments.
const DefaultCacheBytes = 256 << 20

// NewCache builds a cache with the given byte budget. budget <= 0
// disables caching entirely: Get always builds fresh and reports a
// miss.
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:           budget,
		probation:        list.New(),
		lru:              list.New(),
		entries:          make(map[string]*list.Element),
		flights:          make(map[string]*flight),
		neg:              make(map[string]*negEntry),
		breakerThreshold: DefaultBreakerThreshold,
		breakerTTL:       DefaultBreakerTTL,
	}
}

// SetBreaker tunes the circuit breaker (tests). threshold <= 0
// disables it.
func (c *Cache) SetBreaker(threshold int, ttl time.Duration) {
	c.mu.Lock()
	c.breakerThreshold = threshold
	c.breakerTTL = ttl
	c.mu.Unlock()
}

// Negative reports whether key's circuit is currently open, returning
// the fast-fail error if so. Transports call it at admission time so a
// poisoned spec answers 422 without ever entering the job queue.
func (c *Cache) Negative(key string) error {
	if c == nil || c.budget <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.negativeLocked(key)
}

func (c *Cache) negativeLocked(key string) error {
	e := c.neg[key]
	if e == nil || c.breakerThreshold <= 0 || e.failures < c.breakerThreshold {
		return nil
	}
	if time.Now().After(e.until) {
		return nil // half-open: let one probe build through
	}
	c.fastFails++
	return &CircuitOpenError{Key: key, Until: e.until, Cause: e.cause}
}

// noteFailureLocked records one failed build; at the threshold the
// breaker opens (or re-opens after a failed half-open probe).
func (c *Cache) noteFailureLocked(key string, cause error) {
	if c.breakerThreshold <= 0 {
		return
	}
	e := c.neg[key]
	if e == nil {
		e = &negEntry{}
		c.neg[key] = e
	}
	e.failures++
	e.cause = cause
	if e.failures >= c.breakerThreshold {
		if e.failures == c.breakerThreshold || time.Now().After(e.until) {
			c.trips++
		}
		e.until = time.Now().Add(c.breakerTTL)
	}
}

// entryBytes estimates the resident size of a cached deployment: the
// network's points and adjacency plus the engine topology's kernels
// and cell structure. It intentionally overcounts a little — eviction
// pressure should err toward freeing memory.
func entryBytes(n *network.Network) int64 {
	return 144*int64(n.N()) + 8*int64(n.EdgeCount()) + 4096
}

// Get returns the deployment and a request-private engine for key. On
// a hit neither builder runs; on a miss buildNet then buildEngine run
// exactly once across all concurrent callers of the key. The returned
// engine is a clone of the cached prototype whenever the sinr package
// can clone it — hit and miss hand out the same kind of object, so
// results cannot depend on cache temperature — and a fresh
// buildEngine product otherwise. A miss's entry starts on probation;
// the key's next Get is a hit and promotes it.
func (c *Cache) Get(key string,
	buildNet func() (*network.Network, error),
	buildEngine func(*network.Network) (sim.Resolver, error),
) (*network.Network, sim.Resolver, bool, error) {
	return c.get(key, buildNet, buildEngine, false)
}

// Warm makes key resident like a Get, but a built entry skips
// probation and enters the main LRU directly: the caller vouches that
// the key is reused, as a journal's hottest keys are. Counters move
// exactly as for a Get.
func (c *Cache) Warm(key string,
	buildNet func() (*network.Network, error),
	buildEngine func(*network.Network) (sim.Resolver, error),
) error {
	_, _, _, err := c.get(key, buildNet, buildEngine, true)
	return err
}

func (c *Cache) get(key string,
	buildNet func() (*network.Network, error),
	buildEngine func(*network.Network) (sim.Resolver, error),
	warm bool,
) (*network.Network, sim.Resolver, bool, error) {
	if c.budget <= 0 {
		if err := faultinject.Fire(faultinject.CacheBuild); err != nil {
			return nil, nil, false, err
		}
		net, err := buildNet()
		if err != nil {
			return nil, nil, false, err
		}
		eng, err := buildEngine(net)
		if err != nil {
			return nil, nil, false, err
		}
		return net, eng, false, nil
	}

	for {
		c.mu.Lock()
		if err := c.negativeLocked(key); err != nil {
			c.mu.Unlock()
			return nil, nil, false, err
		}
		if el, ok := c.entries[key]; ok {
			c.touchLocked(el)
			ent := el.Value.(*cacheEntry)
			c.hits++
			c.mu.Unlock()
			return c.handout(ent, buildEngine, true)
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			<-f.done
			if f.err != nil {
				return nil, nil, false, f.err
			}
			// The leader built it; waiters are hits (only the leader
			// counted the miss). If the entry is gone (nil — the flight
			// failed to cache), loop back around: it may already have
			// been evicted under pressure, making us a fresh miss.
			if f.ent != nil {
				c.mu.Lock()
				c.hits++
				if el, ok := c.entries[key]; ok && el.Value == f.ent {
					c.touchLocked(el)
				}
				c.mu.Unlock()
				return c.handout(f.ent, buildEngine, true)
			}
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.misses++
		c.mu.Unlock()

		err := faultinject.Fire(faultinject.CacheBuild)
		var net *network.Network
		if err == nil {
			net, err = buildNet()
		}
		var proto sim.Resolver
		if err == nil {
			proto, err = buildEngine(net)
		}
		if err != nil {
			f.err = err
			c.mu.Lock()
			delete(c.flights, key)
			c.noteFailureLocked(key, err)
			c.mu.Unlock()
			close(f.done)
			return nil, nil, false, err
		}
		ent := &cacheEntry{key: key, net: net, proto: proto, bytes: entryBytes(net)}
		c.mu.Lock()
		delete(c.flights, key)
		delete(c.neg, key) // a successful build closes the breaker
		c.insertLocked(ent, !warm)
		c.mu.Unlock()
		f.ent = ent
		close(f.done)
		return c.handout(ent, buildEngine, false)
	}
}

// handout produces a request-private engine from a cached entry: a
// clone of its prototype, or a fresh build when the engine cannot be
// cloned or an injected clone fault fires. The prototype itself is
// never handed out.
func (c *Cache) handout(ent *cacheEntry, buildEngine func(*network.Network) (sim.Resolver, error), hit bool) (*network.Network, sim.Resolver, bool, error) {
	if faultinject.Fire(faultinject.EngineClone) == nil {
		if eng, ok := sinr.CloneResolver(ent.proto); ok {
			return ent.net, eng, hit, nil
		}
	}
	eng, err := buildEngine(ent.net)
	if err != nil {
		return nil, nil, false, err
	}
	return ent.net, eng, hit, nil
}

// touchLocked records a hit on a resident entry: a probationer is
// promoted into the main LRU, and either way the entry becomes the
// most recent.
func (c *Cache) touchLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	if !ent.probation {
		c.lru.MoveToFront(el)
		return
	}
	c.probation.Remove(el)
	ent.probation = false
	c.entries[ent.key] = c.lru.PushFront(ent)
}

// insertLocked adds ent — on probation, or straight into the main LRU
// — then evicts until probation is within its cap and the budget holds
// again: older probationers first, then least-recently-used entries.
// The new entry itself is never the victim, so a key's second request
// is a hit even when promoted entries fill the budget; a full LRU
// yields its oldest entry instead. An entry larger than the whole
// budget is not kept at all — it would only displace everything else.
func (c *Cache) insertLocked(ent *cacheEntry, probation bool) {
	if el, ok := c.entries[ent.key]; ok {
		// A concurrent flight lost a race we never start (flights are
		// keyed), but stay defensive: replace the existing entry.
		c.removeLocked(el)
	}
	if ent.bytes > c.budget {
		c.evictions++
		return
	}
	ent.probation = probation
	el := c.segment(ent).PushFront(ent)
	c.entries[ent.key] = el
	c.used += ent.bytes
	for c.probation.Len() > probationCap {
		c.removeLocked(c.probation.Back())
		c.evictions++
	}
	for c.used > c.budget {
		victim := c.probation.Back()
		if victim == nil || victim == el {
			victim = c.lru.Back()
		}
		if victim == nil || victim == el {
			break
		}
		c.removeLocked(victim)
		c.evictions++
	}
}

// removeLocked drops a resident entry from its list and the index.
func (c *Cache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.segment(ent).Remove(el)
	delete(c.entries, ent.key)
	c.used -= ent.bytes
}

// segment returns the list ent is resident on.
func (c *Cache) segment(ent *cacheEntry) *list.List {
	if ent.probation {
		return c.probation
	}
	return c.lru
}

// CacheStats is a point-in-time snapshot of the cache counters.
// Negative/Trips/FastFails are the circuit-breaker gauges: open keys,
// breaker openings, and Gets answered from a negative entry.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Negative  int   `json:"negative"`
	Trips     int64 `json:"trips"`
	FastFails int64 `json:"fast_fails"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	open := 0
	now := time.Now()
	for _, e := range c.neg {
		if c.breakerThreshold > 0 && e.failures >= c.breakerThreshold && now.Before(e.until) {
			open++
		}
	}
	return CacheStats{
		Entries:   len(c.entries),
		Bytes:     c.used,
		Budget:    c.budget,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Negative:  open,
		Trips:     c.trips,
		FastFails: c.fastFails,
	}
}
