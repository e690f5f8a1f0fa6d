package coloring

import (
	"testing"

	"sinrcast/internal/rng"
)

// mustSchedule builds p's schedule or fails the test.
func mustSchedule(t testing.TB, p Params) *Schedule {
	t.Helper()
	s, err := p.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkScheduleMatchesParams asserts that Schedule returns Validate's
// verdict for p and, for valid p, that every precomputed field equals
// its Params getter.
func checkScheduleMatchesParams(t *testing.T, p Params) {
	t.Helper()
	s, err := p.Schedule()
	verr := p.Validate()
	if (err == nil) != (verr == nil) || (err != nil && err.Error() != verr.Error()) {
		t.Fatalf("%+v: Schedule() error %v, Validate() %v", p, err, verr)
	}
	if err != nil {
		if s != nil {
			t.Fatalf("%+v: Schedule() returned a schedule with error %v", p, err)
		}
		return
	}
	want := Schedule{
		par:        p,
		lg:         p.Lg(),
		pstart:     p.PStart(),
		finalColor: p.FinalColor(),
		phases:     p.Phases(),
		dtLen:      p.DTLen(),
		poLen:      p.POLen(),
		iterLen:    p.DTLen() + p.POLen(),
		phaseLen:   p.PhaseLen(),
		total:      p.TotalRounds(),
		dtNeed:     p.DTNeed(),
		poNeed:     p.PONeed(),
	}
	if *s != want {
		t.Fatalf("%+v: Schedule() = %+v, getters give %+v", p, *s, want)
	}
	if s.TotalRounds() != p.TotalRounds() {
		t.Fatalf("%+v: Schedule.TotalRounds() = %d, want %d", p, s.TotalRounds(), p.TotalRounds())
	}
}

// TestScheduleMatchesParamsAcrossN covers the N where ⌈c·lg N⌉ steps:
// the powers of two and their neighbours up to 2²⁰, plus N ≤ 3 (N = 1
// is invalid under DefaultParams, so it checks the error path).
func TestScheduleMatchesParamsAcrossN(t *testing.T) {
	ns := []int{1, 2, 3}
	for k := 2; k <= 20; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, n := range ns {
		for _, eps := range []float64{1.0 / 3, 0.1} {
			checkScheduleMatchesParams(t, DefaultParams(n, 2, eps))
		}
	}
}

// TestScheduleMatchesParamsRandomized draws valid non-default segment
// lengths, thresholds, CPrime and Confirm, plus invalid mutations, and
// checks the schedule against the getters and Validate.
func TestScheduleMatchesParamsRandomized(t *testing.T) {
	r := rng.New(14)
	for i := 0; i < 2000; i++ {
		n := 2 + r.Intn(1<<20)
		p := DefaultParams(n, 2, 1.0/3)
		p.DTRounds = 0.5 + 15.5*r.Float64()
		p.PORounds = 0.5 + 15.5*r.Float64()
		p.DTThresh = 0.1 + 3*r.Float64()
		p.POThresh = 0.1 + 3*r.Float64()
		p.CPrime = 1 + r.Intn(6)
		p.Confirm = 1 + r.Intn(p.CPrime)
		checkScheduleMatchesParams(t, p)
		switch r.Intn(5) {
		case 0:
			p.Confirm = p.CPrime + 1
		case 1:
			p.DTRounds = -p.DTRounds
		case 2:
			p.CPrime = 0
		case 3:
			p.PMax = 2 * p.PMax
		default:
			p.N = 0
		}
		checkScheduleMatchesParams(t, p)
	}
}

// TestMachinesShareScheduleIndependently runs two machines over one
// schedule and checks each matches a machine with a private schedule:
// the shared pointer carries no per-station state.
func TestMachinesShareScheduleIndependently(t *testing.T) {
	p := testParams()
	shared := mustSchedule(t, p)
	a, b := NewMachine(shared, rng.New(1)), NewMachine(shared, rng.New(2))
	refA, refB := NewMachine(mustSchedule(t, p), rng.New(1)), NewMachine(mustSchedule(t, p), rng.New(2))
	for r := 0; r < p.TotalRounds(); r++ {
		if a.Tick(r) != refA.Tick(r) || b.Tick(r) != refB.Tick(r) {
			t.Fatalf("round %d: shared-schedule machine diverged", r)
		}
		if r%3 == 0 {
			a.OnRecv(r)
			refA.OnRecv(r)
		}
	}
	for _, m := range []*Machine{a, b, refA, refB} {
		m.Finish()
	}
	if a.Color() != refA.Color() || b.Color() != refB.Color() {
		t.Fatalf("colors %v,%v; want %v,%v", a.Color(), b.Color(), refA.Color(), refB.Color())
	}
}
