package protocol

import (
	"fmt"
	"testing"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

// TestInformAccounting pins the broadcast Result contract shared by
// every broadcast runner: AllInformed holds exactly when no station's
// InformTime is -1, and then Rounds is one past the last inform round.
// The deployments include SBroadcast runs whose source decodes a
// coloring message in round 0 — a source counted as newly informed
// there once ended runs early (AllInformed with a station uninformed)
// or ran them to the budget (AllInformed false with every station
// informed). The protocol seed is the deployment seed + 100.
func TestInformAccounting(t *testing.T) {
	deployments := []struct {
		spec  string
		seeds []uint64
	}{
		{"uniform:n=24", seedRange(10, 25)},
		{"uniform:n=64", []uint64{18, 19}},
		{"clusters", []uint64{21, 22}},
		{"dumbbell:n=24", seedRange(15, 20)},
		{"path:n=16", seedRange(1, 5)},
		{"gridholes:n=24", seedRange(1, 5)},
		{"expchain:n=16", seedRange(1, 5)},
	}
	protos := []string{"nos", "nosmulti", "s", "decay", "daum", "oracle", "tdma"}
	for _, d := range deployments {
		spec, err := scenario.Parse(d.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range d.seeds {
			net, err := scenario.Generate(spec, sinr.DefaultParams(), seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", d.spec, seed, err)
			}
			for _, p := range protos {
				res, err := Run(net, Spec{Name: p}, seed+100)
				if err != nil {
					t.Fatalf("%s on %s seed %d: %v", p, d.spec, seed, err)
				}
				if msg := informViolation(res); msg != "" {
					t.Errorf("%s on %s seed %d: %s", p, d.spec, seed, msg)
				}
			}
		}
	}
}

// seedRange returns the deployment seeds lo, …, hi-1.
func seedRange(lo, hi uint64) []uint64 {
	var s []uint64
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// informViolation describes how res breaks the inform contract, or
// returns "" when it keeps it.
func informViolation(res *broadcast.Result) string {
	uninformed, last := 0, -1
	for _, it := range res.InformTime {
		if it < 0 {
			uninformed++
		}
		last = max(last, it)
	}
	switch {
	case res.AllInformed && uninformed > 0:
		return fmt.Sprintf("AllInformed with %d stations uninformed (Rounds %d)", uninformed, res.Rounds)
	case !res.AllInformed && uninformed == 0:
		return fmt.Sprintf("every station informed by round %d, but AllInformed is false after %d rounds", last, res.Rounds)
	case res.AllInformed && res.Rounds != last+1:
		return fmt.Sprintf("Rounds %d, want 1 + the last inform round %d", res.Rounds, last)
	}
	return ""
}
