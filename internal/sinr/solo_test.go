package sinr

import (
	"fmt"
	"testing"

	"sinrcast/internal/rng"
)

// soloOf returns the engine's single-transmitter memo.
func soloOf(r Resolver) *soloMemo {
	switch e := r.(type) {
	case *Engine:
		return &e.solo
	case *GridEngine:
		return &e.solo
	case *HierEngine:
		return &e.solo
	default:
		panic("soloOf: unknown engine type")
	}
}

// TestSoloMemoReplaysResolve drives each engine kind, serial and
// parallel, through rounds that repeat a few single transmitters among
// multi-transmitter and subset rounds, and requires every answer to
// equal the same engine kind's answer with the memo off. Each returned
// slice is overwritten after the check: a memo that handed out its own
// storage would replay the scribbles.
func TestSoloMemoReplaysResolve(t *testing.T) {
	const n = 300
	scene := randomScene(7, n, 6)
	for _, kind := range []EngineKind{KindExact, KindGrid, KindHier} {
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("%s w=%d", kind, workers)
			memo, err := build(kind, scene, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := build(kind, scene, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			if workers > 1 {
				ForceParallelForTest(memo, workers)
				ForceParallelForTest(ref, workers)
			}
			fresh := func(rec []Reception) []Reception {
				return append([]Reception(nil), rec...)
			}
			r := rng.New(11)
			solos := []int{3, 17, 42, 99, 250}
			for round := 0; round < 80; round++ {
				var tx, sub []int
				switch round % 4 {
				case 0, 1:
					tx = []int{solos[r.Intn(len(solos))]}
				case 2:
					tx = randomTxSet(r, n, 0.1)
				case 3:
					tx = []int{solos[r.Intn(len(solos))]}
					sub = randomSubset(r, n, 0.5)
				}
				got := memo.Resolve(tx)
				prev := SetSoloMemoForTest(false)
				want := fresh(ref.Resolve(tx))
				SetSoloMemoForTest(prev)
				diffReceptions(t, fmt.Sprintf("%s round=%d", label, round), want, got)
				for i := range got {
					got[i] = Reception{Receiver: -1, Transmitter: -1}
				}
				if sub != nil {
					got = memo.ResolveFor(tx, sub)
					want = fresh(ref.ResolveFor(tx, sub))
					diffReceptions(t, fmt.Sprintf("%s round=%d subset", label, round), want, got)
				}
			}
			if m := soloOf(memo); len(m.rec) == 0 {
				t.Fatalf("%s: memo recorded no receptions", label)
			}
			if m := soloOf(ref); m.span != nil {
				t.Fatalf("%s: memo recorded while switched off", label)
			}
		}
	}
}

// TestCloneStartsWithoutSoloMemo pins the memo to the per-run scratch:
// a clone of an engine that memoized rounds starts empty.
func TestCloneStartsWithoutSoloMemo(t *testing.T) {
	scene := randomScene(3, 64, 4)
	e, err := NewEngine(scene, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e.Resolve([]int{5})
	if e.solo.span == nil {
		t.Fatal("a solo round recorded nothing")
	}
	if c := e.Clone(); c.solo.span != nil || c.solo.rec != nil {
		t.Fatal("Clone carried the solo memo over")
	}
}
