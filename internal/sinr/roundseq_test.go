// Round-sequence equivalence: the frontier-memoized, delta-updated
// HierEngine must be bit-identical, round for round, to (a) the
// test-only per-receiver descent oracle rebuilding its aggregation
// every round (ResolveDescentForTest), (b) a freshly constructed
// engine resolving only that round (no carried state), and (c) its own
// sharded resolution — across topology families, path-loss exponents,
// realistic transmitter churn, and interleaved ResolveFor subsets.
// This is the property that makes the memo and the delta pure
// optimizations: no observable effect, ever.
package sinr_test

import (
	"fmt"
	"testing"

	"sinrcast/internal/geom"
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

// seqNet builds one registry topology.
func seqNet(t *testing.T, spec string, seed uint64) *network.Network {
	t.Helper()
	sp, err := scenario.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	net, err := scenario.Generate(sp, sinr.DefaultParams(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// seqScene builds one registry topology and returns its Euclidean
// geometry.
func seqScene(t *testing.T, spec string, seed uint64) *geom.Euclidean {
	t.Helper()
	net := seqNet(t, spec, seed)
	eu, ok := net.Space.(*geom.Euclidean)
	if !ok {
		t.Fatalf("scenario %q built %T, want Euclidean", spec, net.Space)
	}
	return eu
}

// evolveTx mutates a sorted transmitter set with roughly the given
// churn fraction (drop existing members, wake new ones), returning a
// sorted set — the shape protocol round loops feed the delta path.
func evolveTx(r *rng.Source, n int, cur []int, churn, density float64) []int {
	keep := map[int]bool{}
	for _, t := range cur {
		if !r.Bernoulli(churn) {
			keep[t] = true
		}
	}
	adds := int(churn*float64(len(cur))) + 1
	for i := 0; i < adds*3 && adds > 0; i++ {
		c := int(r.Uint64() % uint64(n))
		if !keep[c] {
			keep[c] = true
			adds--
		}
	}
	if len(keep) == 0 {
		keep[int(r.Uint64()%uint64(n))] = true
	}
	_ = density
	out := make([]int, 0, len(keep))
	for i := 0; i < n; i++ {
		if keep[i] {
			out = append(out, i)
		}
	}
	return out
}

// allStations lists every station index: the receiver set that makes
// ResolveDescentForTest resolve a whole round.
func allStations(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

func sortedSubset(r *rng.Source, n int, p float64) []int {
	var s []int
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			s = append(s, i)
		}
	}
	return s
}

func diffRec(t *testing.T, label string, want, got []sinr.Reception) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d receptions", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: reception %d: %+v vs %+v", label, i, want[i], got[i])
		}
	}
}

func TestRoundSequenceEquivalence(t *testing.T) {
	families := []struct{ name, spec string }{
		{"uniform", "uniform:n=640,density=8"},
		{"starclusters", "starclusters:arms=4,m=60,hops=40"},
		{"gridholes", "gridholes:n=640,spacing=0.45"},
	}
	alphas := []float64{2, 2.5, 4}
	seqs, rounds := 6, 10 // 6 seqs × 9 combos = 54 sequences
	if testing.Short() {
		seqs = 2
	}
	for _, fam := range families {
		for _, alpha := range alphas {
			t.Run(fmt.Sprintf("%s/alpha=%g", fam.name, alpha), func(t *testing.T) {
				eu := seqScene(t, fam.spec, 20140+uint64(alpha*10))
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
				memo := mk() // memo + delta on: the production path
				par := mk()  // same, sharded
				sinr.ForceParallelForTest(par, 3)
				oracle := mk() // reference: per-receiver descent, rebuild every round
				oracle.SetDeltaCrossover(0)
				all := allStations(n)
				r := rng.New(uint64(len(fam.name))*1000 + uint64(alpha*4))
				for seq := 0; seq < seqs; seq++ {
					var tx []int
					for round := 0; round < rounds; round++ {
						churn := []float64{0.05, 0.25, 0.6}[round%3]
						tx = evolveTx(r, n, tx, churn, 0.05)
						label := fmt.Sprintf("%s/a=%g seq=%d round=%d", fam.name, alpha, seq, round)
						fresh := mk() // no carried state at all
						switch round % 4 {
						case 3: // subset round: small or large alternating
							pr := 0.04
							if seq%2 == 1 {
								pr = 0.5
							}
							sub := sortedSubset(r, n, pr)
							if len(sub) == 0 {
								continue
							}
							want := oracle.ResolveDescentForTest(tx, sub)
							diffRec(t, label+" memoFor", want, memo.ResolveFor(tx, sub))
							diffRec(t, label+" parFor", want, par.ResolveFor(tx, sub))
							diffRec(t, label+" freshFor", want, fresh.ResolveFor(tx, sub))
						default:
							want := oracle.ResolveDescentForTest(tx, all)
							diffRec(t, label+" memo", want, memo.Resolve(tx))
							diffRec(t, label+" par", want, par.Resolve(tx))
							diffRec(t, label+" fresh", want, fresh.Resolve(tx))
						}
					}
				}
			})
		}
	}
}

// TestDeltaMatchesRebuildLongRun drives one engine through a long
// low-churn sequence — the regime where the delta path stays active
// for many consecutive rounds and compaction of the live/hot lists
// kicks in — against a rebuild-every-round twin.
func TestDeltaMatchesRebuildLongRun(t *testing.T) {
	eu := seqScene(t, "uniform:n=900,density=8", 7)
	n := eu.Len()
	p := sinr.DefaultParams()
	delta, err := sinr.NewHierEngine(eu, p, sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	rebuild, err := sinr.NewHierEngine(eu, p, sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	delta.SetWorkers(1)
	rebuild.SetWorkers(1)
	rebuild.SetDeltaCrossover(0)
	r := rng.New(99)
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	var tx []int
	for round := 0; round < rounds; round++ {
		tx = evolveTx(r, n, tx, 0.08, 0.05)
		want := append([]sinr.Reception(nil), rebuild.Resolve(tx)...)
		diffRec(t, fmt.Sprintf("round %d", round), want, delta.Resolve(tx))
	}
}

// TestUnsortedRoundsFallBack pins the safety fallback: rounds whose
// transmitter slice is not strictly increasing cannot take the delta
// path, but must still resolve identically to a fresh engine.
func TestUnsortedRoundsFallBack(t *testing.T) {
	eu := seqScene(t, "uniform:n=400,density=8", 11)
	p := sinr.DefaultParams()
	h, err := sinr.NewHierEngine(eu, p, sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
	if err != nil {
		t.Fatal(err)
	}
	h.SetWorkers(1)
	seqsets := [][]int{
		{5, 3, 250, 9},   // unsorted
		{5, 3, 250, 9},   // identical unsorted (still no delta)
		{3, 5, 9, 250},   // same set, sorted
		{3, 5, 9, 251},   // small sorted delta
		{251, 9, 5, 3},   // reversed again
		{2, 4, 6, 8, 10}, // disjoint sorted
		{2, 4, 6, 8, 10}, // identical (pure delta no-op)
		{1, 1, 7},        // duplicates: not strictly increasing
		{0, 7, 399},      // sorted again
	}
	for i, tx := range seqsets {
		fresh, err := sinr.NewHierEngine(eu, p, sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
		if err != nil {
			t.Fatal(err)
		}
		fresh.SetWorkers(1)
		want := append([]sinr.Reception(nil), fresh.Resolve(tx)...)
		diffRec(t, fmt.Sprintf("set %d", i), want, h.Resolve(tx))
	}
}
