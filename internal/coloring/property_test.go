package coloring

import (
	"testing"
	"testing/quick"

	"sinrcast/internal/rng"
)

func TestPropertyMachineColorAlwaysInPalette(t *testing.T) {
	// Under arbitrary reception patterns the machine terminates with a
	// palette color and never transmits after quitting.
	par := testParams()
	sched := mustSchedule(t, par)
	valid := map[float64]bool{par.FinalColor(): true}
	for ph := 0; ph < par.Phases(); ph++ {
		valid[par.ColorOfPhase(ph)] = true
	}
	if err := quick.Check(func(seed uint64, pattern uint64) bool {
		m := NewMachine(sched, rng.New(seed))
		for r := 0; r < par.TotalRounds(); r++ {
			tx := m.Tick(r)
			if m.Done() && tx {
				return false
			}
			// Pseudo-random reception pattern derived from the bits.
			if !m.Done() && !tx && (pattern>>(uint(r)%64))&1 == 1 {
				m.OnRecv(r)
			}
		}
		m.Finish()
		return m.Done() && valid[m.Color()]
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMachineMonotonePV(t *testing.T) {
	// CurrentP never decreases while active and never exceeds 2·pmax.
	par := testParams()
	sched := mustSchedule(t, par)
	if err := quick.Check(func(seed uint64) bool {
		m := NewMachine(sched, rng.New(seed))
		prev := 0.0
		for r := 0; r < par.TotalRounds(); r++ {
			m.Tick(r)
			p := m.CurrentP()
			if p < prev-1e-15 || p > par.FinalColor()+1e-15 {
				return false
			}
			prev = p
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDefaultParamsAlwaysValid(t *testing.T) {
	if err := quick.Check(func(nRaw uint16, eps8 uint8) bool {
		n := int(nRaw)%5000 + 2
		eps := 0.05 + float64(eps8%90)/100 // in [0.05, 0.95)
		p := DefaultParams(n, 2, eps)
		return p.Validate() == nil
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyScheduleCoversAllSegments(t *testing.T) {
	// Every (phase, iter, half) triple appears exactly DTLen or POLen
	// times in the schedule.
	par := testParams()
	m := NewMachine(mustSchedule(t, par), rng.New(1))
	counts := map[segment]int{}
	for r := 0; r < par.TotalRounds(); r++ {
		counts[m.segmentOf(r)]++
	}
	wantSegments := par.Phases() * par.CPrime * 2
	if len(counts) != wantSegments {
		t.Fatalf("distinct segments = %d, want %d", len(counts), wantSegments)
	}
	for seg, c := range counts {
		want := par.DTLen()
		if seg.inPO {
			want = par.POLen()
		}
		if c != want {
			t.Fatalf("segment %+v has %d rounds, want %d", seg, c, want)
		}
	}
}
