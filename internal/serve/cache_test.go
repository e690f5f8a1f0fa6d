package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

func testBuilders(t *testing.T, n int, seed uint64) (func() (*network.Network, error), func(*network.Network) (sim.Resolver, error)) {
	t.Helper()
	spec := scenario.Spec{Family: "uniform", Params: map[string]float64{"n": float64(n)}}
	buildNet := func() (*network.Network, error) {
		return scenario.Generate(spec, sinr.DefaultParams(), seed)
	}
	buildEngine := func(net *network.Network) (sim.Resolver, error) {
		return sinr.NewNamedEngine("exact", net.Space, net.Params)
	}
	return buildNet, buildEngine
}

func TestCacheHitSharesNetwork(t *testing.T) {
	c := NewCache(DefaultCacheBytes)
	buildNet, buildEngine := testBuilders(t, 48, 3)

	net1, eng1, hit1, err := c.Get("k", buildNet, buildEngine)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Fatal("first Get reported a hit")
	}
	net2, eng2, hit2, err := c.Get("k", buildNet, buildEngine)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("second Get reported a miss")
	}
	if net1 != net2 {
		t.Fatal("hit did not share the cached network")
	}
	if eng1 == eng2 {
		t.Fatal("hit handed out the same engine object — engines must be request-private")
	}
	// Both engines resolve identically: clones share topology, state is
	// private.
	r1, r2 := eng1.Resolve([]int{0, 1}), eng2.Resolve([]int{0, 1})
	if len(r1) != len(r2) {
		t.Fatalf("clone resolution differs: %d vs %d receptions", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("reception %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

// TestCacheSingleflight is the concurrency gate (run under -race in
// CI): many goroutines missing one key must collapse to a single
// build.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(DefaultCacheBytes)
	buildNet, buildEngine := testBuilders(t, 48, 5)
	var builds atomic.Int64
	countingNet := func() (*network.Network, error) {
		builds.Add(1)
		return buildNet()
	}

	const goroutines = 16
	var wg sync.WaitGroup
	engines := make([]sim.Resolver, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, eng, _, err := c.Get("k", countingNet, buildEngine)
			if err != nil {
				t.Error(err)
				return
			}
			engines[g] = eng
		}(g)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds for one key under concurrency, want 1 (singleflight)", builds.Load())
	}
	seen := map[sim.Resolver]bool{}
	for g, eng := range engines {
		if eng == nil {
			t.Fatalf("goroutine %d got no engine", g)
		}
		if seen[eng] {
			t.Fatalf("two goroutines share one engine object")
		}
		seen[eng] = true
	}
	cs := c.Stats()
	if cs.Misses != 1 {
		t.Fatalf("stats after singleflight: %+v (want 1 miss)", cs)
	}
}

// TestCacheBuildErrorPropagates: a failing build reaches every waiter
// and is not cached.
func TestCacheBuildErrorPropagates(t *testing.T) {
	c := NewCache(DefaultCacheBytes)
	boom := errors.New("boom")
	fails := 0
	_, _, _, err := c.Get("k",
		func() (*network.Network, error) { fails++; return nil, boom },
		nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
	// The failure was not cached: a later Get retries the build.
	buildNet, buildEngine := testBuilders(t, 32, 1)
	_, _, hit, err := c.Get("k", buildNet, buildEngine)
	if err != nil || hit {
		t.Fatalf("after failed build: hit=%v err=%v, want a clean miss", hit, err)
	}
}

// TestCacheEviction: inserting past the byte budget evicts least-
// recently-used entries; touched entries survive.
func TestCacheEviction(t *testing.T) {
	buildNet, _ := testBuilders(t, 48, 1)
	net, err := buildNet()
	if err != nil {
		t.Fatal(err)
	}
	per := entryBytes(net)
	c := NewCache(3 * per) // room for ~3 of these deployments

	getKey := func(seed uint64) {
		t.Helper()
		bn, be := testBuilders(t, 48, seed)
		if _, _, _, err := c.Get(fmt.Sprintf("k%d", seed), bn, be); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		getKey(seed)
	}
	getKey(1) // touch k1 so k2 is the LRU
	getKey(4) // must evict k2
	cs := c.Stats()
	if cs.Evictions == 0 {
		t.Fatalf("no evictions after exceeding the budget: %+v", cs)
	}
	if cs.Bytes > cs.Budget {
		t.Fatalf("cache over budget after eviction: %+v", cs)
	}
	hitsBefore := c.Stats().Hits
	getKey(1) // k1 was touched — it must have survived
	if c.Stats().Hits != hitsBefore+1 {
		t.Fatal("recently-used entry was evicted before the LRU one")
	}
	bn, be := testBuilders(t, 48, 2)
	if _, _, hit, _ := c.Get("k2", bn, be); hit {
		t.Fatal("LRU entry survived eviction")
	}
}

// TestCacheDisabled: a non-positive budget builds fresh every time and
// never reports hits.
func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1)
	buildNet, buildEngine := testBuilders(t, 32, 1)
	for i := 0; i < 2; i++ {
		_, eng, hit, err := c.Get("k", buildNet, buildEngine)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatal("disabled cache reported a hit")
		}
		if eng == nil {
			t.Fatal("disabled cache returned no engine")
		}
	}
	if cs := c.Stats(); cs.Entries != 0 {
		t.Fatalf("disabled cache retained entries: %+v", cs)
	}
}

// TestCacheOversizedEntry: one entry larger than the whole budget must
// not pin the cache — it is evicted immediately, and the cache keeps
// working.
func TestCacheOversizedEntry(t *testing.T) {
	c := NewCache(1) // 1 byte: everything is oversized
	buildNet, buildEngine := testBuilders(t, 32, 1)
	_, eng, hit, err := c.Get("k", buildNet, buildEngine)
	if err != nil || hit || eng == nil {
		t.Fatalf("oversized miss: hit=%v err=%v", hit, err)
	}
	if cs := c.Stats(); cs.Entries != 0 || cs.Bytes != 0 {
		t.Fatalf("oversized entry retained: %+v", cs)
	}
	// Still serviceable.
	if _, eng, _, err := c.Get("k", buildNet, buildEngine); err != nil || eng == nil {
		t.Fatalf("cache wedged after oversized entry: %v", err)
	}
}

// TestCacheProbationCapsOneShotKeys: a stream of keys that are never
// asked for again leaves at most probationCap entries resident, even
// while the cache is far under its byte budget.
func TestCacheProbationCapsOneShotKeys(t *testing.T) {
	c := NewCache(DefaultCacheBytes)
	const keys = 3 * probationCap
	for seed := uint64(1); seed <= keys; seed++ {
		bn, be := testBuilders(t, 16, seed)
		if _, _, _, err := c.Get(fmt.Sprintf("k%d", seed), bn, be); err != nil {
			t.Fatal(err)
		}
		if cs := c.Stats(); cs.Entries > probationCap {
			t.Fatalf("after %d one-shot keys: %d entries resident, cap %d", seed, cs.Entries, probationCap)
		}
	}
	cs := c.Stats()
	if cs.Entries != probationCap || cs.Bytes >= cs.Budget {
		t.Fatalf("want exactly %d never-hit entries under budget, got %+v", probationCap, cs)
	}
	if cs.Evictions != keys-probationCap {
		t.Fatalf("evictions %d, want %d", cs.Evictions, keys-probationCap)
	}
	// The newest one-shot keys are the ones still resident.
	bn, be := testBuilders(t, 16, keys)
	if _, _, hit, _ := c.Get(fmt.Sprintf("k%d", keys), bn, be); !hit {
		t.Fatal("newest probationer was evicted")
	}
}

// TestCacheHitEntrySurvivesOneShots: a key hit once is promoted out of
// probation, so no number of later one-shot keys can evict it while
// the budget holds.
func TestCacheHitEntrySurvivesOneShots(t *testing.T) {
	c := NewCache(DefaultCacheBytes)
	hotNet, hotEng := testBuilders(t, 32, 99)
	for i := 0; i < 2; i++ {
		if _, _, _, err := c.Get("hot", hotNet, hotEng); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint64(1); seed <= 4*probationCap; seed++ {
		bn, be := testBuilders(t, 16, seed)
		if _, _, _, err := c.Get(fmt.Sprintf("k%d", seed), bn, be); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	if _, _, hit, err := c.Get("hot", hotNet, hotEng); err != nil || !hit {
		t.Fatalf("promoted key lost to one-shot keys: hit=%v err=%v", hit, err)
	}
	if after := c.Stats(); after.Misses != before.Misses {
		t.Fatalf("promoted key rebuilt: before %+v after %+v", before, after)
	}
}

// TestCacheStatsBytesMatchResident: after a random mix of one-shot
// misses, promotions, warms and budget evictions, Stats().Bytes is the
// sum of the resident entries' sizes and every resident entry sits on
// exactly one list.
func TestCacheStatsBytesMatchResident(t *testing.T) {
	buildNet, _ := testBuilders(t, 24, 1)
	net, err := buildNet()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(12 * entryBytes(net))
	r := rng.New(3)
	sizes := []int{16, 24, 40}
	for op := 0; op < 600; op++ {
		seed := uint64(r.Intn(40))
		if op%5 == 0 {
			seed = 1000 + uint64(op) // one-shot
		}
		bn, be := testBuilders(t, sizes[seed%3], seed)
		key := fmt.Sprintf("k%d", seed)
		if op%17 == 0 {
			err = c.Warm(key, bn, be)
		} else {
			_, _, _, err = c.Get(key, bn, be)
		}
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		var sum int64
		for _, el := range c.entries {
			sum += el.Value.(*cacheEntry).bytes
		}
		lists := c.probation.Len() + c.lru.Len()
		entries := len(c.entries)
		c.mu.Unlock()
		cs := c.Stats()
		if cs.Bytes != sum || cs.Bytes > cs.Budget {
			t.Fatalf("op %d: Stats().Bytes %d, resident sum %d, budget %d", op, cs.Bytes, sum, cs.Budget)
		}
		if lists != entries {
			t.Fatalf("op %d: %d entries indexed, %d on lists", op, entries, lists)
		}
	}
	if cs := c.Stats(); cs.Evictions == 0 || cs.Hits == 0 {
		t.Fatalf("mix exercised no evictions or no hits: %+v", cs)
	}
}

// TestCacheNewKeyDisplacesFullLRU: once promoted entries fill the
// budget, a new key must still stay resident long enough for its
// second request to hit, displacing the least-recently-used promoted
// entry rather than being evicted on insertion.
func TestCacheNewKeyDisplacesFullLRU(t *testing.T) {
	buildNet, _ := testBuilders(t, 48, 1)
	net, err := buildNet()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(3 * entryBytes(net))
	get := func(seed uint64) bool {
		t.Helper()
		bn, be := testBuilders(t, 48, seed)
		_, _, hit, err := c.Get(fmt.Sprintf("k%d", seed), bn, be)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	for seed := uint64(1); seed <= 3; seed++ {
		get(seed)
		if !get(seed) {
			t.Fatalf("k%d: second request missed while filling the budget", seed)
		}
	}
	if cs := c.Stats(); cs.Entries != 3 || cs.Evictions != 0 {
		t.Fatalf("promoted keys did not fill the budget: %+v", cs)
	}
	for seed := uint64(4); seed <= 6; seed++ {
		get(seed)
		if !get(seed) {
			t.Fatalf("k%d: second request missed — new key evicted on insertion", seed)
		}
	}
	// The new hot set displaced the old one, oldest first.
	for seed := uint64(4); seed <= 6; seed++ {
		if !get(seed) {
			t.Fatalf("k%d: promoted newcomer was evicted", seed)
		}
	}
	if get(1) {
		t.Fatal("oldest promoted key survived a full replacement of the hot set")
	}
}
