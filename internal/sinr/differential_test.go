// Differential oracle: the approximate hier engine against the exact
// engine, over every registered scenario family. The round-sequence
// tests pin hier's production path to its own per-receiver descent;
// this test pins the approximation itself to exact SINR decoding.
package sinr_test

import (
	"fmt"
	"testing"

	"sinrcast/internal/geom"
	"sinrcast/internal/rng"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

// hierDisagreementCeiling bounds, per (family, α), the receptions on
// which hier and the exact engine disagree, as a fraction of the exact
// engine's receptions. Measured at the default geometry: one case
// disagrees (gradient at α=2.5, 1 of 6399 receptions, 1.6e-4), every
// other case agrees exactly. The ceiling leaves 3× headroom over that,
// while loosening θ from 0.5 to 1 already measures 7.5e-4 and fails.
const hierDisagreementCeiling = 5e-4

// TestHierMatchesExactAcrossFamilies builds each Euclidean family at
// n≈400 for α ∈ {2.5, 3, 4} and resolves the same random rounds on
// both engines, counting a disagreement for every receiver whose
// decode (or lack of one) differs.
func TestHierMatchesExactAcrossFamilies(t *testing.T) {
	const (
		n      = 400
		rounds = 40
	)
	for _, fam := range scenario.Families() {
		for _, alpha := range []float64{2.5, 3, 4} {
			t.Run(fmt.Sprintf("%s/alpha=%g", fam.Name, alpha), func(t *testing.T) {
				p := sinr.DefaultParams()
				p.Alpha = alpha
				net, err := scenario.Generate(fam.SpecForN(n), p, 1406)
				if err != nil {
					t.Fatal(err)
				}
				eu, ok := net.Space.(*geom.Euclidean)
				if !ok {
					t.Skipf("family %s builds a %T space; hier needs Euclidean positions", fam.Name, net.Space)
				}
				exact, err := sinr.NewEngine(eu, p)
				if err != nil {
					t.Fatal(err)
				}
				hier, err := sinr.NewHierEngine(eu, p, sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
				if err != nil {
					t.Fatal(err)
				}
				exact.SetWorkers(1)
				hier.SetWorkers(1)
				r := rng.New(uint64(alpha * 10))
				m := eu.Len()
				total, differ := 0, 0
				for round := 0; round < rounds; round++ {
					// Sweep transmitter density from sparse (most
					// stations decode) to dense (interference-bound).
					pr := []float64{0.02, 0.05, 0.15}[round%3]
					var tx []int
					for i := 0; i < m; i++ {
						if r.Bernoulli(pr) {
							tx = append(tx, i)
						}
					}
					want := map[int]int{}
					for _, rc := range exact.Resolve(tx) {
						want[rc.Receiver] = rc.Transmitter
					}
					total += len(want)
					differ += disagreements(want, hier.Resolve(tx))
				}
				if total == 0 {
					t.Fatal("exact engine decoded nothing; the comparison is vacuous")
				}
				rate := float64(differ) / float64(total)
				t.Logf("n=%d: %d of %d exact receptions differ (rate %.2e)", m, differ, total, rate)
				if rate > hierDisagreementCeiling {
					t.Errorf("hier disagrees with exact on %.2e of receptions, above the %.0e ceiling", rate, hierDisagreementCeiling)
				}
			})
		}
	}
}

// TestHierMidBandBeatsGrid is the premise of sinr.Choose sending
// 4096 ≤ n < 32768 to hier instead of the grid. At n=4096 and α=3 it
// resolves 24 rounds at transmitter densities of 0.5–5% on every
// Euclidean family, with both approximate engines built by name (the
// geometry AutoEngine gives them), and asserts that hier stays under
// hierDisagreementCeiling and never disagrees with exact more often
// than the grid engine. Measured: hier's worst family is gridholes at
// 1.1e-4 (2 of 18100 receptions; the grid family 9.7e-5, gradient
// 2.4e-5, the other seven 0), so the ceiling leaves 4.5× headroom. The
// grid engine measures 1.1e-3 to 4.7e-3 on seven families and would
// fail the ceiling; on dumbbell it measures 2.5e-5 (1 of 40810), and on
// clusters, gaussian and starclusters both engines agree with exact.
func TestHierMidBandBeatsGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every family at n=4096")
	}
	const (
		n      = 4096
		rounds = 24
	)
	p := sinr.DefaultParams()
	p.Alpha = 3
	for _, fam := range scenario.Families() {
		t.Run(fam.Name, func(t *testing.T) {
			t.Parallel()
			net, err := scenario.Generate(fam.SpecForN(n), p, 1406)
			if err != nil {
				t.Fatal(err)
			}
			eu, ok := net.Space.(*geom.Euclidean)
			if !ok {
				t.Skipf("family %s builds a %T space; hier needs Euclidean positions", fam.Name, net.Space)
			}
			engines := map[string]sinr.Resolver{}
			for _, name := range []string{"exact", "grid", "hier"} {
				e, err := sinr.NewNamedEngine(name, eu, p)
				if err != nil {
					t.Fatal(err)
				}
				e.SetWorkers(1)
				engines[name] = e
			}
			r := rng.New(n)
			m := eu.Len()
			total := 0
			differ := map[string]int{}
			for round := 0; round < rounds; round++ {
				pr := []float64{0.005, 0.01, 0.02, 0.05}[round%4]
				var tx []int
				for i := 0; i < m; i++ {
					if r.Bernoulli(pr) {
						tx = append(tx, i)
					}
				}
				want := map[int]int{}
				for _, rc := range engines["exact"].Resolve(tx) {
					want[rc.Receiver] = rc.Transmitter
				}
				total += len(want)
				for _, name := range []string{"grid", "hier"} {
					differ[name] += disagreements(want, engines[name].Resolve(tx))
				}
			}
			if total == 0 {
				t.Fatal("exact engine decoded nothing; the comparison is vacuous")
			}
			hier := float64(differ["hier"]) / float64(total)
			grid := float64(differ["grid"]) / float64(total)
			t.Logf("n=%d, %d exact receptions: hier %d differ (%.2e), grid %d differ (%.2e)", m, total, differ["hier"], hier, differ["grid"], grid)
			if hier > hierDisagreementCeiling {
				t.Errorf("hier disagrees with exact on %.2e of receptions, above the %.0e ceiling", hier, hierDisagreementCeiling)
			}
			if hier > grid {
				t.Errorf("hier disagrees with exact more often (%.2e) than the grid (%.2e)", hier, grid)
			}
		})
	}
}

// disagreements counts the receivers whose decode differs between the
// exact receptions want (receiver → transmitter) and got.
func disagreements(want map[int]int, got []sinr.Reception) int {
	d, matched := 0, 0
	for _, rc := range got {
		if w, ok := want[rc.Receiver]; ok && w == rc.Transmitter {
			matched++
		} else {
			d++
		}
	}
	return d + len(want) - matched
}
