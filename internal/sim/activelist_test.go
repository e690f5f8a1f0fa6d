package sim

import (
	"slices"
	"testing"

	"sinrcast/internal/rng"
)

// rescanActive is the reference active list: every station not marked
// inactive, ascending.
func rescanActive(e *Engine) []int {
	var all []int
	for i := range e.protos {
		if e.inactive == nil || !e.inactive[i] {
			all = append(all, i)
		}
	}
	return all
}

// TestActiveListMatchesRescan drives the incremental active list
// through random interleavings of deactivations, re-activations,
// repeated calls and list reads, and requires every read to equal a
// full rescan. It also holds the list to its cost: between
// re-activations, an update examines only the previous list, and a
// read with no change in between examines nothing.
func TestActiveListMatchesRescan(t *testing.T) {
	const n = 97
	filtered, rebuilt := 0, 0
	for seed := uint64(1); seed <= 20; seed++ {
		e, err := NewEngine(nullSubsetResolver{n}, make([]Protocol, n))
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		prevLen, reactivated := n, true
		for step := 0; step < 400; step++ {
			switch k := r.Intn(10); {
			case k < 6: // deactivate a few, sometimes ones already inactive
				for j := r.Intn(4); j >= 0; j-- {
					e.SetReceiverActive(r.Intn(n), false)
				}
			case k < 8: // re-activate one, sometimes an active one
				i := r.Intn(n)
				if e.inactive != nil && e.inactive[i] {
					reactivated = true
				}
				e.SetReceiverActive(i, true)
			}
			if e.inactiveN == 0 {
				continue // resolve never reads the list then
			}
			before := e.activeExamined
			dirty := e.activeDirty
			got := e.activeReceivers()
			want := rescanActive(e)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: active list %v, rescan %v", seed, step, got, want)
			}
			examined := e.activeExamined - before
			switch {
			case !dirty && examined != 0:
				t.Fatalf("seed %d step %d: unchanged list examined %d stations", seed, step, examined)
			case dirty && !reactivated && examined > int64(prevLen):
				t.Fatalf("seed %d step %d: update after deactivations examined %d stations, previous list held %d", seed, step, examined, prevLen)
			}
			if dirty {
				if reactivated {
					rebuilt++
				} else {
					filtered++
				}
				reactivated = false
			}
			prevLen = len(got)
		}
	}
	if filtered == 0 || rebuilt < 20 {
		t.Fatalf("%d filtered and %d rebuilt updates: the sweep missed a path", filtered, rebuilt)
	}
}
