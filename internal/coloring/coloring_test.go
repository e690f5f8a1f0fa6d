package coloring

import (
	"math"
	"testing"
	"testing/quick"

	"sinrcast/internal/geom"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

// testParams returns a tiny deterministic schedule for machine tests:
// thresholds of 1 reception, short segments, Confirm=1.
func testParams() Params {
	return Params{
		N:        16,
		C1:       0.25,
		CEps:     8,
		PMax:     1.0 / 16,
		CPrime:   2,
		Confirm:  1,
		DTRounds: 1, // lg(16)=4 -> DTLen=4
		DTThresh: 0.25,
		PORounds: 1,
		POThresh: 0.25,
	}
}

func TestParamsValidateTable(t *testing.T) {
	ok := testParams()
	tests := []struct {
		name    string
		mutate  func(*Params)
		wantErr bool
	}{
		{"valid", func(p *Params) {}, false},
		{"zero N", func(p *Params) { p.N = 0 }, true},
		{"zero C1", func(p *Params) { p.C1 = 0 }, true},
		{"ceps below 1", func(p *Params) { p.CEps = 0.5 }, true},
		{"pmax zero", func(p *Params) { p.PMax = 0 }, true},
		{"pmax ceps product too big", func(p *Params) { p.PMax = 0.2; p.CEps = 8 }, true},
		{"cprime zero", func(p *Params) { p.CPrime = 0 }, true},
		{"confirm zero", func(p *Params) { p.Confirm = 0 }, true},
		{"confirm above cprime", func(p *Params) { p.Confirm = 3 }, true},
		{"zero segment", func(p *Params) { p.DTRounds = 0 }, true},
		{"zero threshold", func(p *Params) { p.POThresh = 0 }, true},
		{"pstart >= pmax", func(p *Params) { p.N = 1; p.C1 = 1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := ok
			tt.mutate(&p)
			if err := p.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestScheduleArithmetic(t *testing.T) {
	p := testParams()
	if got := p.PStart(); got != 0.25/32 {
		t.Fatalf("PStart = %v", got)
	}
	// phases: pstart=1/128 doubling to pmax=1/16: 1/128,1/64,1/32 -> 3 phases.
	if got := p.Phases(); got != 3 {
		t.Fatalf("Phases = %d, want 3", got)
	}
	if p.DTLen() != 4 || p.POLen() != 4 {
		t.Fatalf("segment lengths = %d,%d", p.DTLen(), p.POLen())
	}
	if p.DTNeed() != 1 || p.PONeed() != 1 {
		t.Fatalf("needs = %d,%d", p.DTNeed(), p.PONeed())
	}
	if p.PhaseLen() != 2*(4+4) {
		t.Fatalf("PhaseLen = %d", p.PhaseLen())
	}
	if p.TotalRounds() != 3*16 {
		t.Fatalf("TotalRounds = %d", p.TotalRounds())
	}
	if p.NumColors() != 4 {
		t.Fatalf("NumColors = %d", p.NumColors())
	}
	if p.FinalColor() != 2.0/16 {
		t.Fatalf("FinalColor = %v", p.FinalColor())
	}
	if c := p.ColorOfPhase(1); c != 2*p.PStart() {
		t.Fatalf("ColorOfPhase(1) = %v", c)
	}
}

func TestDefaultParamsValidateAcrossN(t *testing.T) {
	for _, n := range []int{2, 8, 37, 100, 1000, 100000} {
		p := DefaultParams(n, 2, 1.0/3)
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestDefaultParamsScheduleGrowsLikeLogSquared(t *testing.T) {
	// Fact 7: O(log² n) rounds. Verify the schedule length ratio between
	// n and n² stays near (log n² / log n)² = 4 within slack.
	small := DefaultParams(256, 2, 1.0/3).TotalRounds()
	big := DefaultParams(256*256, 2, 1.0/3).TotalRounds()
	ratio := float64(big) / float64(small)
	if ratio < 2 || ratio > 8 {
		t.Fatalf("schedule ratio n->n² = %v, want ~4", ratio)
	}
}

// feedMachine drives m over its full schedule, invoking recv(r) to decide
// whether a reception is delivered in round r.
func feedMachine(m *Machine, recv func(r int) bool) {
	total := m.s.total
	for r := 0; r < total; r++ {
		m.Tick(r)
		if !m.Done() && recv(r) {
			m.OnRecv(r)
		}
	}
	m.Finish()
}

func TestMachineNoReceptionsSurvives(t *testing.T) {
	m := NewMachine(mustSchedule(t, testParams()), rng.New(1))
	feedMachine(m, func(int) bool { return false })
	if !m.Done() {
		t.Fatal("machine not done after Finish")
	}
	if m.Color() != m.s.finalColor {
		t.Fatalf("color = %v, want final %v", m.Color(), m.s.finalColor)
	}
}

func TestMachineQuitsOnDenseSignal(t *testing.T) {
	// Receptions every round: DT and PO both pass in phase 0, Confirm=1
	// -> quit with color pstart after the first DT+PO iteration.
	m := NewMachine(mustSchedule(t, testParams()), rng.New(1))
	feedMachine(m, func(int) bool { return true })
	if m.Color() != m.s.pstart {
		t.Fatalf("color = %v, want pstart %v", m.Color(), m.s.pstart)
	}
}

func TestMachineConfirmTwoNeedsTwoIterations(t *testing.T) {
	p := testParams()
	p.Confirm = 2
	m := NewMachine(mustSchedule(t, p), rng.New(1))
	feedMachine(m, func(int) bool { return true })
	// Quit still in phase 0 (both iterations pass back to back), color
	// = pstart, but only after the second iteration: verify via the
	// fact the machine is Done with phase-0 color.
	if m.Color() != p.PStart() {
		t.Fatalf("color = %v, want pstart", m.Color())
	}
}

func TestMachineDTOnlyNeverQuits(t *testing.T) {
	// Receptions only during DT halves: Playoff never passes.
	p := testParams()
	m := NewMachine(mustSchedule(t, p), rng.New(1))
	feedMachine(m, func(r int) bool {
		return !m.segmentOf(r).inPO
	})
	if m.Color() != p.FinalColor() {
		t.Fatalf("color = %v, want final (PO never passed)", m.Color())
	}
}

func TestMachinePOOnlyNeverQuits(t *testing.T) {
	p := testParams()
	m := NewMachine(mustSchedule(t, p), rng.New(1))
	feedMachine(m, func(r int) bool {
		return m.segmentOf(r).inPO
	})
	if m.Color() != p.FinalColor() {
		t.Fatalf("color = %v, want final (DT never passed)", m.Color())
	}
}

func TestMachineQuitsInLaterPhase(t *testing.T) {
	// Receptions only from phase 1 onward: quit color = 2·pstart.
	p := testParams()
	m := NewMachine(mustSchedule(t, p), rng.New(1))
	feedMachine(m, func(r int) bool {
		return r >= p.PhaseLen()
	})
	if m.Color() != 2*p.PStart() {
		t.Fatalf("color = %v, want 2·pstart = %v", m.Color(), 2*p.PStart())
	}
}

func TestMachinePVDoubles(t *testing.T) {
	p := testParams()
	m := NewMachine(mustSchedule(t, p), rng.New(1))
	if m.CurrentP() != p.PStart() {
		t.Fatalf("initial pv = %v", m.CurrentP())
	}
	// Drive through one full phase with no receptions.
	for r := 0; r <= p.PhaseLen(); r++ {
		m.Tick(r)
	}
	if m.CurrentP() != 2*p.PStart() {
		t.Fatalf("pv after phase 0 = %v, want doubled", m.CurrentP())
	}
}

func TestMachineReset(t *testing.T) {
	p := testParams()
	m := NewMachine(mustSchedule(t, p), rng.New(1))
	feedMachine(m, func(int) bool { return true })
	if !m.Done() {
		t.Fatal("not done")
	}
	m.Reset()
	if m.Done() || m.Color() != 0 || m.CurrentP() != p.PStart() {
		t.Fatal("Reset did not clear state")
	}
	// Rerun identically.
	feedMachine(m, func(int) bool { return true })
	if m.Color() != p.PStart() {
		t.Fatalf("color after reset-run = %v", m.Color())
	}
}

func TestMachineTickPanicsOnRewind(t *testing.T) {
	m := NewMachine(mustSchedule(t, testParams()), rng.New(1))
	for r := 0; r < 10; r++ {
		m.Tick(r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Tick(0) after Tick(9) should panic")
		}
	}()
	m.Tick(0)
}

func TestMachineIgnoresOutOfScheduleRecv(t *testing.T) {
	p := testParams()
	m := NewMachine(mustSchedule(t, p), rng.New(1))
	m.OnRecv(-1)
	m.OnRecv(p.TotalRounds() + 5)
	m.Finish()
	if m.Color() != p.FinalColor() {
		t.Fatalf("out-of-schedule receptions affected state: %v", m.Color())
	}
}

func TestMachineNeverTransmitsAfterQuit(t *testing.T) {
	p := testParams()
	m := NewMachine(mustSchedule(t, p), rng.New(3))
	quitRound := -1
	for r := 0; r < p.TotalRounds(); r++ {
		tx := m.Tick(r)
		if m.Done() && quitRound < 0 {
			quitRound = r
		}
		if m.Done() && tx {
			t.Fatalf("transmitted after quit at round %d", r)
		}
		if !m.Done() {
			m.OnRecv(r)
		}
	}
	if quitRound < 0 {
		t.Fatal("machine never quit despite receptions every round")
	}
}

func TestRunDeterministicInSeed(t *testing.T) {
	net, err := scenario.Generate(scenario.Spec{Family: "uniform", Params: map[string]float64{"n": 64, "density": 8}}, sinr.DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams(net.N(), 2, net.Params.Eps)
	a, err := Run(net, par, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, par, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Colors {
		if a.Colors[i] != b.Colors[i] {
			t.Fatalf("colors differ at %d between identical seeds", i)
		}
	}
}

func TestRunColorsInPalette(t *testing.T) {
	net, err := scenario.Generate(scenario.Spec{Family: "uniform", Params: map[string]float64{"n": 96, "density": 12}}, sinr.DefaultParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams(net.N(), 2, net.Params.Eps)
	res, err := Run(net, par, 1)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[float64]bool{par.FinalColor(): true}
	for ph := 0; ph < par.Phases(); ph++ {
		valid[par.ColorOfPhase(ph)] = true
	}
	for i, c := range res.Colors {
		if !valid[c] {
			t.Fatalf("station %d has off-palette color %v", i, c)
		}
		if c <= 0 {
			t.Fatalf("station %d has non-positive color", i)
		}
	}
}

func TestRunRejectsInvalidParams(t *testing.T) {
	net, err := scenario.Generate(scenario.Spec{Family: "uniform", Params: map[string]float64{"n": 32, "density": 8}}, sinr.DefaultParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams(net.N(), 2, net.Params.Eps)
	bad.CPrime = 0
	if _, err := Run(net, bad, 1); err == nil {
		t.Fatal("want error for invalid params")
	}
}

func TestCheckLemma1HandCrafted(t *testing.T) {
	// Three stations within one unit ball, two colors.
	net, err := network.New(geom.NewLine([]float64{0, 0.3, 0.6}), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	colors := []float64{0.1, 0.1, 0.4}
	st := CheckLemma1(net, colors)
	// Color 0.1 mass in any ball covering both = 0.2; color 0.4 mass 0.4.
	if math.Abs(st.MaxMass-0.4) > 1e-12 || st.Color != 0.4 {
		t.Fatalf("Lemma1 = %+v, want mass 0.4", st)
	}
}

func TestCheckLemma2HandCrafted(t *testing.T) {
	// eps = 1/3 -> radius 1/6. Stations 0,1 close (0.1), station 2 far.
	net, err := network.New(geom.NewLine([]float64{0, 0.1, 0.5}), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	colors := []float64{0.2, 0.2, 0.05}
	st := CheckLemma2(net, colors)
	// Station 2's ε/2-ball holds only itself: best mass 0.05.
	if st.Station != 2 || math.Abs(st.MinBestMass-0.05) > 1e-12 {
		t.Fatalf("Lemma2 = %+v, want station 2 mass 0.05", st)
	}
	// Stations 0,1 share color 0.2: their best mass is 0.4.
}

func TestPalette(t *testing.T) {
	p := Palette([]float64{0.5, 0.25, 0.5, 0.125})
	want := []float64{0.125, 0.25, 0.5}
	if len(p) != 3 {
		t.Fatalf("Palette = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Palette = %v, want %v", p, want)
		}
	}
}

func TestTotalMassPerBall(t *testing.T) {
	net, err := network.New(geom.NewLine([]float64{0, 0.5, 3}), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	m := TotalMassPerBall(net, []float64{0.1, 0.2, 0.4})
	if math.Abs(m[0]-0.3) > 1e-12 || math.Abs(m[1]-0.3) > 1e-12 || math.Abs(m[2]-0.4) > 1e-12 {
		t.Fatalf("TotalMassPerBall = %v", m)
	}
}

func TestSegmentOfProperty(t *testing.T) {
	// Property: segmentOf is monotone in phase/iter and every round maps
	// into a valid segment.
	p := testParams()
	m := NewMachine(mustSchedule(t, p), rng.New(1))
	if err := quick.Check(func(raw uint16) bool {
		r := int(raw) % p.TotalRounds()
		s := m.segmentOf(r)
		return s.phase >= 0 && s.phase < p.Phases() &&
			s.iter >= 0 && s.iter < p.CPrime
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHalfSegmentEndProperty(t *testing.T) {
	p := testParams()
	m := NewMachine(mustSchedule(t, p), rng.New(1))
	// Property: r < halfSegmentEnd(r) <= TotalRounds, and the half
	// segment containing r ends exactly where the next begins.
	for r := 0; r < p.TotalRounds(); r++ {
		end := m.halfSegmentEnd(r)
		if end <= r || end > p.TotalRounds() {
			t.Fatalf("halfSegmentEnd(%d) = %d out of range", r, end)
		}
		if end < p.TotalRounds() {
			cur := m.segmentOf(r)
			nxt := m.segmentOf(end)
			if cur == nxt {
				t.Fatalf("round %d and %d in same half segment", r, end)
			}
		}
	}
}
