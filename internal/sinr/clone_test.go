package sinr

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sinrcast/internal/rng"
)

// cloneSeq generates a deterministic sequence of (tx, receivers) rounds
// with overlapping transmitter sets, so the hier engine's caches all
// engage.
func cloneSeq(seed uint64, n, rounds int) (tx [][]int, recv [][]int) {
	r := rng.New(seed)
	for round := 0; round < rounds; round++ {
		var t []int
		for i := 0; i < n; i++ {
			if r.Uint64()%8 < 2 { // ~25% transmit, resampled per round
				t = append(t, i)
			}
		}
		if len(t) == 0 {
			t = []int{int(r.Uint64() % uint64(n))}
		}
		tx = append(tx, t)
		if round%3 == 2 { // every third round restricts the receivers
			var rs []int
			for i := 0; i < n; i += 3 {
				rs = append(rs, i)
			}
			recv = append(recv, rs)
		} else {
			recv = append(recv, nil)
		}
	}
	return tx, recv
}

// replaySeq resolves the sequence and returns a copy of every round's
// receptions.
func replaySeq(r Resolver, tx, recv [][]int) [][]Reception {
	out := make([][]Reception, len(tx))
	for i := range tx {
		var rec []Reception
		if recv[i] != nil {
			rec = r.ResolveFor(tx[i], recv[i])
		} else {
			rec = r.Resolve(tx[i])
		}
		out[i] = append([]Reception(nil), rec...)
	}
	return out
}

// cloneOf clones via the type-switch helper, failing on non-engines.
func cloneOf(t *testing.T, r Resolver) Resolver {
	t.Helper()
	c, ok := CloneResolver(r)
	if !ok {
		t.Fatalf("CloneResolver(%T) not cloneable", r)
	}
	return c
}

// TestCloneMatchesFresh pins the Clone contract on all three engines: a
// clone taken from a *used* engine (cross-round aggregation state, warm
// caches) resolves byte-identically to a freshly constructed engine on
// the same sequence — it inherits topology, never run state.
func TestCloneMatchesFresh(t *testing.T) {
	const n = 1024
	scene := benchScene(41, n)
	p := DefaultParams()
	builders := []struct {
		name  string
		build func() (Resolver, error)
	}{
		{"exact", func() (Resolver, error) { return NewEngine(scene, p) }},
		{"grid", func() (Resolver, error) { return NewGridEngine(scene, p, DefaultCellSize, DefaultNearRadius) }},
		{"hier", func() (Resolver, error) {
			return NewHierEngine(scene, p, DefaultCellSize, DefaultNearRadius, DefaultTheta)
		}},
	}
	warmTx, warmRecv := cloneSeq(7, n, 12)
	tx, recv := cloneSeq(8, n, 24)
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			orig, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			replaySeq(orig, warmTx, warmRecv) // dirty the original's run state
			clone := cloneOf(t, orig)
			fresh, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			want := replaySeq(fresh, tx, recv)
			got := replaySeq(clone, tx, recv)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("clone of used %s engine diverges from fresh construction", b.name)
			}
			// The original must be unperturbed by the clone's rounds.
			wantOrig := replaySeq(fresh, warmTx, warmRecv)
			_ = wantOrig
			if got := replaySeq(orig, tx, recv); !reflect.DeepEqual(got, want) {
				t.Fatalf("original %s engine diverges after cloning", b.name)
			}
		})
	}
}

// TestCloneSharesTopology pins the point of the split: clones alias the
// topology slabs (one struct, shared position arrays) rather than
// copying them.
func TestCloneSharesTopology(t *testing.T) {
	scene := benchScene(42, 512)
	p := DefaultParams()
	e, err := NewEngine(scene, p)
	if err != nil {
		t.Fatal(err)
	}
	if ec := e.Clone(); ec.engineTopo != e.engineTopo {
		t.Error("exact clone copied its topology")
	}
	g, err := NewGridEngine(scene, p, DefaultCellSize, DefaultNearRadius)
	if err != nil {
		t.Fatal(err)
	}
	if gc := g.Clone(); gc.gridTopo != g.gridTopo {
		t.Error("grid clone copied its topology")
	}
	h, err := NewHierEngine(scene, p, DefaultCellSize, DefaultNearRadius, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	hc := h.Clone()
	if hc.hierTopo != h.hierTopo {
		t.Error("hier clone copied its topology")
	}
	// Run state is lazily allocated; force it on both before checking
	// the pyramids really are separate.
	h.Levels()
	hc.Levels()
	if &hc.levels[0].pow[0] == &h.levels[0].pow[0] {
		t.Error("hier clone shares mutable pyramid aggregates")
	}
}

// TestCloneNotCloneable pins the fallback contract for wrapper channels.
func TestCloneNotCloneable(t *testing.T) {
	scene := benchScene(43, 64)
	f, err := NewFadingEngine(scene, DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := CloneResolver(f); ok {
		t.Error("CloneResolver cloned a fading engine (it owns RNG state)")
	}
	if _, ok := CloneResolver(nil); ok {
		t.Error("CloneResolver cloned nil")
	}
}

// TestClonesRunConcurrently drives several clones of one engine on the
// same round sequence from separate goroutines (the exp trial-pool
// usage) and checks every one matches the serial reference. Run under
// -race this also proves the shared topology really is read-only.
func TestClonesRunConcurrently(t *testing.T) {
	const n, workers = 2048, 4
	scene := benchScene(44, n)
	h, err := NewHierEngine(scene, DefaultParams(), DefaultCellSize, DefaultNearRadius, DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	tx, recv := cloneSeq(9, n, 16)
	want := replaySeq(h, tx, recv) // also dirties the prototype's state
	got := make([][][]Reception, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := h.Clone()
		c.SetWorkers(1)
		wg.Add(1)
		go func(w int, c Resolver) {
			defer wg.Done()
			got[w] = replaySeq(c, tx, recv)
		}(w, c)
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want) {
			t.Fatalf("clone %d diverges from the serial reference", w)
		}
	}
}

// BenchmarkTrialSetup measures what handing out clones buys (E14's
// trials, the serve cache's requests): the cost of readying one
// engine, fresh construction versus cloning a prototype. The clone skips the bounding-box scan, cell assignment and
// both CSR counting sorts; run-state arrays are lazily allocated on
// first resolve either way, so the numbers isolate topology work. The
// acceptance gate wants cloned ≥ 5× faster at n=65536.
func BenchmarkTrialSetup(b *testing.B) {
	for _, n := range []int{16384, 65536} {
		scene := benchScene(uint64(n)+3, n)
		p := DefaultParams()
		b.Run(fmt.Sprintf("n=%d/mode=fresh", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, err := NewHierEngine(scene, p, DefaultCellSize, DefaultNearRadius, DefaultTheta)
				if err != nil {
					b.Fatal(err)
				}
				_ = h
			}
		})
		b.Run(fmt.Sprintf("n=%d/mode=clone", n), func(b *testing.B) {
			proto, err := NewHierEngine(scene, p, DefaultCellSize, DefaultNearRadius, DefaultTheta)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = proto.Clone()
			}
		})
	}
}
