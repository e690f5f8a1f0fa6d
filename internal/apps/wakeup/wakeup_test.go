package wakeup

import (
	"testing"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/network"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

func genNet(t testing.TB, n int, seed uint64) *network.Network {
	t.Helper()
	net, err := scenario.Generate(scenario.Spec{Family: "uniform", Params: map[string]float64{"n": float64(n), "density": 8}}, sinr.DefaultParams(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func cfgFor(net *network.Network) broadcast.Config {
	return broadcast.DefaultConfig(net.N(), net.Space.Growth(), net.Params.Eps)
}

func TestScheduleValidate(t *testing.T) {
	tests := []struct {
		name    string
		wake    []int
		n       int
		wantErr bool
	}{
		{"ok single", []int{0, -1, -1}, 3, false},
		{"ok multiple", []int{5, -1, 3}, 3, false},
		{"wrong length", []int{0}, 3, true},
		{"invalid entry", []int{-2, 0, 0}, 3, true},
		{"nobody wakes", []int{-1, -1, -1}, 3, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Schedule{WakeAt: tt.wake}.Validate(tt.n)
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestFirstWake(t *testing.T) {
	s := Schedule{WakeAt: []int{-1, 7, 3, -1, 12}}
	if got := s.FirstWake(); got != 3 {
		t.Fatalf("FirstWake = %d, want 3", got)
	}
	if got := (Schedule{WakeAt: []int{-1}}).FirstWake(); got != -1 {
		t.Fatalf("FirstWake empty = %d", got)
	}
}

func TestSingleSpontaneousWake(t *testing.T) {
	net := genNet(t, 48, 3)
	wake := make([]int, net.N())
	for i := range wake {
		wake[i] = -1
	}
	wake[0] = 0
	res, err := Run(net, cfgFor(net), 7, Schedule{WakeAt: wake})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Fatalf("not all awake, span %d", res.Span)
	}
	if res.AwakeTime[0] != 0 {
		t.Fatalf("spontaneous station woke at %d", res.AwakeTime[0])
	}
	if res.Span <= 0 {
		t.Fatalf("span = %d", res.Span)
	}
}

func TestStaggeredAdversarialWakes(t *testing.T) {
	net := genNet(t, 48, 5)
	cfg := cfgFor(net)
	wake := make([]int, net.N())
	for i := range wake {
		wake[i] = -1
	}
	// Three staggered spontaneous wake-ups, the first mid-phase.
	wake[0] = cfg.PhaseLen() / 2
	wake[10] = cfg.PhaseLen()
	wake[20] = 2 * cfg.PhaseLen()
	res, err := Run(net, cfg, 11, Schedule{WakeAt: wake})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Fatalf("not all awake, span %d", res.Span)
	}
	// No station can be awake before the first spontaneous wake.
	first := Schedule{WakeAt: wake}.FirstWake()
	for i, at := range res.AwakeTime {
		if at < first {
			t.Fatalf("station %d awake at %d before first wake %d", i, at, first)
		}
	}
}

func TestLateWakeStillWorks(t *testing.T) {
	// A spontaneous wake far into the timeline: span must still be
	// bounded (time counted from the wake, not absolute).
	net := genNet(t, 32, 9)
	cfg := cfgFor(net)
	wake := make([]int, net.N())
	for i := range wake {
		wake[i] = -1
	}
	wake[5] = 3 * cfg.PhaseLen()
	res, err := Run(net, cfg, 13, Schedule{WakeAt: wake})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Fatalf("not all awake, span %d", res.Span)
	}
	baseline := make([]int, net.N())
	for i := range baseline {
		baseline[i] = -1
	}
	baseline[5] = 0
	res0, err := Run(net, cfg, 13, Schedule{WakeAt: baseline})
	if err != nil {
		t.Fatal(err)
	}
	if !res0.AllAwake {
		t.Fatal("baseline wake incomplete")
	}
	// The late wake costs at most ~2 extra phases relative to waking at
	// round 0 (phase alignment slack).
	if res.Span > res0.Span+2*cfg.PhaseLen() {
		t.Fatalf("late-wake span %d far exceeds baseline %d", res.Span, res0.Span)
	}
}

func TestRunRejectsBadSchedule(t *testing.T) {
	net := genNet(t, 16, 1)
	if _, err := Run(net, cfgFor(net), 1, Schedule{WakeAt: []int{0}}); err == nil {
		t.Fatal("want error for truncated schedule")
	}
}

func TestEveryoneWakesSimultaneously(t *testing.T) {
	net := genNet(t, 32, 15)
	wake := make([]int, net.N())
	res, err := Run(net, cfgFor(net), 3, Schedule{WakeAt: wake})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Fatal("all-spontaneous run incomplete")
	}
	if res.Span != 1 {
		t.Fatalf("span = %d, want 1 (everyone awake in round 0)", res.Span)
	}
}
