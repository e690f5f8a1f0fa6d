// Package coloring implements the paper's central tool (§3): the
// distributed StabilizeProbability procedure (Algorithm 1) that assigns
// every station a transmission probability ("color") from the geometric
// scale {2^i·pstart}, using only message counts — no positions, no
// carrier sensing, no density knowledge.
//
// Structure is exactly the paper's: stations start at p = Θ(1/n),
// repeatedly run DensityTest (transmit with p, count receptions) and
// Playoff (transmit with p·cε, count receptions); a station that passes
// both quits with its current color, otherwise doubles p, up to pmax.
//
// The paper's constants are worst-case analysis artifacts; here they are
// explicit fields of Params, with defaults calibrated so the Lemma 1 and
// Lemma 2 invariants hold empirically on all test network families (see
// DESIGN.md, substitution 2, and the invariant tests in this package).
package coloring

import (
	"errors"
	"fmt"
	"math"
)

// Params are the knobs of Algorithm 1. The zero value is not valid; use
// DefaultParams or fill every field.
type Params struct {
	// N is the number of stations known to every node (§1.1). An upper
	// estimate ν ≥ n works too; only pstart and the log n segment
	// lengths depend on it.
	N int
	// C1 is the target per-color, per-unit-ball probability mass
	// (Lemma 1). pstart = C1/(2N) per Algorithm 1 line 1.
	C1 float64
	// CEps is the Playoff scale-up factor cε. The paper prescribes
	// cε ≈ 1/ε'^γ (ε' = ε/2) so that Playoff is DensityTest rescaled
	// to radius ε/2: DefaultParams computes it from ε and γ.
	CEps float64
	// PMax is the probability ceiling pmax; survivors end with color
	// 2·PMax. Must satisfy 2·PMax·CEps ≤ 1 so Playoff probabilities
	// stay ≤ 1.
	PMax float64
	// CPrime is c′: the number of DensityTest+Playoff iterations per
	// doubling phase.
	CPrime int
	// Confirm is the number of consecutive passing iterations (within
	// one phase) required before a station switches off. The paper's
	// single-iteration rule corresponds to Confirm=1; with the short
	// O(log n) segments practical simulations use, Confirm=2 squares
	// the fluke probability of DensityTest and keeps premature
	// switch-offs (which would break Lemma 2) negligible. Must be
	// ≤ CPrime.
	Confirm int
	// DTRounds (c0) and DTThresh (c1): DensityTest lasts
	// ceil(DTRounds·lg N) rounds and passes on ≥ ceil(DTThresh·lg N)
	// receptions.
	DTRounds, DTThresh float64
	// PORounds (c2) and POThresh (c3): same for Playoff.
	PORounds, POThresh float64
}

// DefaultParams returns calibrated parameters for a network of n
// stations in a metric of growth degree gamma with connectivity
// parameter eps (see sinr.Params.Eps).
//
// Calibration notes (see the sweep and calibration tests in this
// package): CEps must be large enough that Playoff rounds saturate the
// channel inside dense unit balls — the "interference wall" of Fact 9
// that blocks receptions from beyond ε/2 and makes Playoff a genuine
// close-density test. The paper's asymptotic choice 1/ε'^γ is the right
// scale-invariance intuition but empirically too weak for the wall at
// simulation densities; 144 (with pmax = 1/(2·cε), so pmax·cε stays 1/2
// and broadcast rates are unaffected) gives the best Lemma 1 / Lemma 2
// margins across all test families. For small networks cε is clamped to
// 2n so that pstart < pmax always holds. gamma and eps are accepted for
// interface stability and future tuning.
func DefaultParams(n int, gamma, eps float64) Params {
	_ = gamma
	_ = eps
	ceps := 144.0
	if limit := 2 * float64(n); ceps > limit {
		ceps = limit
	}
	if ceps < 4 {
		ceps = 4
	}
	return Params{
		N:        n,
		C1:       0.25,
		CEps:     ceps,
		PMax:     1 / (2 * ceps),
		CPrime:   2,
		Confirm:  2,
		DTRounds: 8,
		DTThresh: 1.0,
		PORounds: 8,
		POThresh: 1.0,
	}
}

// Validate reports whether the parameters are internally consistent.
func (p Params) Validate() error {
	var errs []error
	if p.N < 1 {
		errs = append(errs, fmt.Errorf("coloring: N = %d must be >= 1", p.N))
	}
	if !(p.C1 > 0) {
		errs = append(errs, fmt.Errorf("coloring: C1 = %v must be > 0", p.C1))
	}
	if !(p.CEps >= 1) {
		errs = append(errs, fmt.Errorf("coloring: CEps = %v must be >= 1", p.CEps))
	}
	if !(p.PMax > 0) || 2*p.PMax*p.CEps > 1+1e-9 {
		errs = append(errs, fmt.Errorf("coloring: PMax = %v must be in (0, 1/(2·CEps)]", p.PMax))
	}
	if p.CPrime < 1 {
		errs = append(errs, fmt.Errorf("coloring: CPrime = %d must be >= 1", p.CPrime))
	}
	if p.Confirm < 1 || p.Confirm > p.CPrime {
		errs = append(errs, fmt.Errorf("coloring: Confirm = %d must be in [1, CPrime=%d]", p.Confirm, p.CPrime))
	}
	if p.DTRounds <= 0 || p.PORounds <= 0 {
		errs = append(errs, fmt.Errorf("coloring: segment lengths must be positive"))
	}
	if p.DTThresh <= 0 || p.POThresh <= 0 {
		errs = append(errs, fmt.Errorf("coloring: thresholds must be positive"))
	}
	if p.PStart() >= p.PMax {
		errs = append(errs, fmt.Errorf("coloring: pstart %v >= pmax %v (network too small for these params)", p.PStart(), p.PMax))
	}
	return errors.Join(errs...)
}

// Lg returns log2(N) clamped below at 1 so segment lengths stay positive
// for tiny networks. It is the one lg n of the module: the broadcast
// and application layers scale their windows and flood probabilities
// by it too.
func (p Params) Lg() float64 {
	l := math.Log2(float64(p.N))
	if l < 1 {
		l = 1
	}
	return l
}

// PStart returns the initial probability C1/(2N) (Algorithm 1, line 1).
func (p Params) PStart() float64 { return p.C1 / (2 * float64(p.N)) }

// Phases returns the number of doubling phases: the smallest k with
// pstart·2^k ≥ pmax.
func (p Params) Phases() int {
	k := int(math.Ceil(math.Log2(p.PMax / p.PStart())))
	if k < 1 {
		k = 1
	}
	return k
}

// DTLen returns the DensityTest segment length in rounds.
func (p Params) DTLen() int { return int(math.Ceil(p.DTRounds * p.Lg())) }

// POLen returns the Playoff segment length in rounds.
func (p Params) POLen() int { return int(math.Ceil(p.PORounds * p.Lg())) }

// DTNeed returns the reception count DensityTest requires to pass.
func (p Params) DTNeed() int {
	v := int(math.Ceil(p.DTThresh * p.Lg()))
	if v < 1 {
		v = 1
	}
	return v
}

// PONeed returns the reception count Playoff requires to pass.
func (p Params) PONeed() int {
	v := int(math.Ceil(p.POThresh * p.Lg()))
	if v < 1 {
		v = 1
	}
	return v
}

// PhaseLen returns the length of one doubling phase:
// CPrime·(DTLen+POLen).
func (p Params) PhaseLen() int { return p.CPrime * (p.DTLen() + p.POLen()) }

// TotalRounds returns the full schedule length of StabilizeProbability;
// by Fact 7 it is O(log² n).
func (p Params) TotalRounds() int { return p.Phases() * p.PhaseLen() }

// FinalColor returns the color assigned to stations that never switch
// off: 2·pmax (Algorithm 1, line 8).
func (p Params) FinalColor() float64 { return 2 * p.PMax }

// NumColors returns the size of the color palette: one per phase plus
// the final color. O(log n) as the paper requires.
func (p Params) NumColors() int { return p.Phases() + 1 }

// ColorOfPhase returns the color a station quitting in the given phase
// (0-based) receives: pstart·2^phase.
func (p Params) ColorOfPhase(phase int) float64 {
	return p.PStart() * math.Pow(2, float64(phase))
}
