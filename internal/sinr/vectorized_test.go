// Vectorization equivalence: the batch-kernel replay of the hier
// engine must be bit-identical to the per-receiver descent oracle,
// which folds in plain scalar loops. Frontier and near-slab lengths
// vary freely with the topology and churn, so the sequences below also
// fuzz the unroll tails (length mod 4/8) through the engine.
package sinr_test

import (
	"fmt"
	"slices"
	"testing"

	"sinrcast/internal/rng"
	"sinrcast/internal/sinr"
)

// TestVectorizedReplayBitIdentity drives the production engine and the
// descent oracle through identical round sequences — whole rounds and
// ResolveFor subsets from single stations to the whole network — across
// the three topology families and the three bench exponents, requiring
// byte-identical receptions throughout.
func TestVectorizedReplayBitIdentity(t *testing.T) {
	families := []struct{ name, spec string }{
		{"uniform", "uniform:n=640,density=8"},
		{"starclusters", "starclusters:arms=4,m=60,hops=40"},
		{"gridholes", "gridholes:n=640,spacing=0.45"},
	}
	alphas := []float64{2, 2.5, 4}
	for _, fam := range families {
		for _, alpha := range alphas {
			t.Run(fmt.Sprintf("%s/alpha=%g", fam.name, alpha), func(t *testing.T) {
				eu := seqScene(t, fam.spec, 31000+uint64(alpha*10))
				n := eu.Len()
				p := sinr.DefaultParams()
				mk := func() *sinr.HierEngine {
					h, err := sinr.NewHierEngine(eu, p, sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
					if err != nil {
						t.Fatal(err)
					}
					sinr.SetAlphaForTest(h, alpha)
					h.SetWorkers(1)
					return h
				}
				vec, oracle := mk(), mk()
				all := allStations(n)
				r := rng.New(uint64(len(fam.name))*77 + uint64(alpha*4))
				var tx []int
				for round := 0; round < 24; round++ {
					churn := []float64{0.05, 0.2, 0.6}[round%3]
					tx = evolveTx(r, n, tx, churn, 0.05)
					label := fmt.Sprintf("%s/a=%g round=%d", fam.name, alpha, round)
					switch round % 3 {
					case 2:
						// Subset sizes at the extremes and on both sides of
						// n/8; every size runs the whole-round block loop.
						sizes := []int{1, 2, n / 64, n/8 - 1, n / 8, n / 2, n}
						sub := r.Perm(n)[:sizes[round/3%len(sizes)]]
						slices.Sort(sub)
						want := oracle.ResolveDescentForTest(tx, sub)
						diffRec(t, label+" vecFor", want, vec.ResolveFor(tx, sub))
					default:
						want := oracle.ResolveDescentForTest(tx, all)
						diffRec(t, label+" vec", want, vec.Resolve(tx))
					}
				}
			})
		}
	}
}

// TestHotTableBlockGranularityGate is the hardware-independent cost
// gate of the block-granularity hot table: across a churny delta-path
// sequence, the mean number of counter bumps per live-cell transition
// must stay at least 20× below the (2·nearCells+1)² bumps the per-cell
// table paid for the same transitions.
func TestHotTableBlockGranularityGate(t *testing.T) {
	eu := seqScene(t, "uniform:n=900,density=8", 13)
	n := eu.Len()
	h, err := sinr.NewHierEngine(eu, sinr.DefaultParams(), sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	h.SetWorkers(1)
	r := rng.New(5)
	var tx []int
	for round := 0; round < 120; round++ {
		tx = evolveTx(r, n, tx, 0.1, 0.05)
		h.Resolve(tx)
	}
	bumps, transitions := h.HotStatsForTest()
	if transitions == 0 {
		t.Fatal("no live-cell transitions recorded — the sequence never exercised the hot table")
	}
	perTransition := float64(bumps) / float64(transitions)
	nc := h.NearCellsForTest()
	perCell := float64((2*nc + 1) * (2*nc + 1))
	t.Logf("hot table: %.2f bumps/transition (block) vs %.0f (per-cell): %.1f×",
		perTransition, perCell, perCell/perTransition)
	if perCell < 20*perTransition {
		t.Fatalf("block hot table pays %.2f bumps/transition; per-cell would pay %.0f — ratio %.1f× is below the 20× gate",
			perTransition, perCell, perCell/perTransition)
	}
}
