package scenario

import (
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sinrcast/internal/sinr"
)

var update = flag.Bool("update", false, "rewrite the golden catalogue under testdata/")

// TestSpecStringGolden pins the canonical compact form: parameters
// sorted by name, shortest float rendering, family alone when no
// parameters are set.
func TestSpecStringGolden(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Family: "uniform"}, "uniform"},
		{Spec{Family: "uniform", Params: map[string]float64{"n": 256, "density": 8}}, "uniform:density=8,n=256"},
		{Spec{Family: "expchain", Params: map[string]float64{"ratio": 0.6, "n": 32, "first": 0.5}}, "expchain:first=0.5,n=32,ratio=0.6"},
		{Spec{Family: "clusters", Params: map[string]float64{"k": 4, "m": 24, "radius": 0.08, "gap": 0.6}}, "clusters:gap=0.6,k=4,m=24,radius=0.08"},
	} {
		if got := tc.spec.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestParseRoundTrip checks Parse(s).String() == canonical form for
// spaced, reordered and bare inputs.
func TestParseRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"uniform", "uniform"},
		{"uniform:n=256,density=8", "uniform:density=8,n=256"},
		{" uniform:n=256 , density=8 ", "uniform:density=8,n=256"},
		{"grid:spacing=0.25,n=49", "grid:n=49,spacing=0.25"},
		{"annulus:thickness=0.3", "annulus:thickness=0.3"},
		{"starclusters:arms=7,hops=2", "starclusters:arms=7,hops=2"},
	} {
		sp, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := sp.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		again, err := Parse(sp.String())
		if err != nil {
			t.Errorf("reparse %q: %v", sp.String(), err)
			continue
		}
		if again.String() != tc.want {
			t.Errorf("reparse drifted: %q -> %q", tc.want, again.String())
		}
	}
}

// TestParseErrors checks the error surface of the compact form.
func TestParseErrors(t *testing.T) {
	for _, tc := range []struct {
		in      string
		wantSub string
	}{
		{"", "empty spec"},
		{"nosuchfamily", "unknown family"},
		{"nosuchfamily:n=4", "unknown family"},
		{"uniform:", "empty parameter list"},
		{"uniform:n", "malformed parameter"},
		{"uniform:n=", "malformed parameter"},
		{"uniform:=8", "malformed parameter"},
		{"uniform:bogus=1", "no parameter \"bogus\""},
		{"uniform:n=abc", "not a number"},
		{"uniform:n=4,n=5", "given twice"},
	} {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q): want error containing %q, got nil", tc.in, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error = %q, want substring %q", tc.in, err, tc.wantSub)
		}
	}
}

// TestGenerateValidation checks range, integrality and unknown-name
// rejection for programmatically built specs.
func TestGenerateValidation(t *testing.T) {
	phys := sinr.DefaultParams()
	for _, tc := range []struct {
		name    string
		spec    Spec
		wantSub string
	}{
		{"unknown-family", Spec{Family: "nope"}, "unknown family"},
		{"uniform-bogus-param", Spec{Family: "uniform", Params: map[string]float64{"bogus": 1}}, "no parameter"},
		{"uniform-n0", Spec{Family: "uniform", Params: map[string]float64{"n": 0}}, "outside"},
		{"uniform-n-fractional", Spec{Family: "uniform", Params: map[string]float64{"n": 2.5}}, "must be an integer"},
		{"path-frac-above-1", Spec{Family: "path", Params: map[string]float64{"frac": 1.5}}, "outside"},
		{"path-frac0", Spec{Family: "path", Params: map[string]float64{"n": 4, "frac": 0}}, "must be in (0,1]"},
		{"grid-spacing10", Spec{Family: "grid", Params: map[string]float64{"spacing": 10}}, "spacing"},
		{"grid-spacing0", Spec{Family: "grid", Params: map[string]float64{"n": 9, "spacing": 0}}, "spacing"},
		{"expchain-first5", Spec{Family: "expchain", Params: map[string]float64{"first": 5}}, "first gap"},
		{"expchain-ratio1.5", Spec{Family: "expchain", Params: map[string]float64{"n": 4, "ratio": 1.5}}, "outside"},
		{"clusteredpath-pathlen1", Spec{Family: "clusteredpath", Params: map[string]float64{"pathlen": 1, "cluster": 4}}, "outside"},
		{"clusteredpath-cluster0", Spec{Family: "clusteredpath", Params: map[string]float64{"pathlen": 4, "cluster": 0}}, "outside"},
		{"clusteredpath-ratio1", Spec{Family: "clusteredpath", Params: map[string]float64{"pathlen": 4, "cluster": 4, "ratio": 1}}, "must be in (0,1)"},
		{"clusters-radius", Spec{Family: "clusters", Params: map[string]float64{"radius": 0.5}}, "radius"},
		{"clusters-k0", Spec{Family: "clusters", Params: map[string]float64{"k": 0, "m": 5}}, "outside"},
		{"clusters-gap2", Spec{Family: "clusters", Params: map[string]float64{"k": 2, "m": 5, "gap": 2}}, "gap"},
		{"gaussian-sigma0", Spec{Family: "gaussian", Params: map[string]float64{"n": 10, "sigma": 0}}, "sigma"},
		{"corridor-step0", Spec{Family: "corridor", Params: map[string]float64{"n": 5, "step": 0}}, "step"},
		{"annulus-density0", Spec{Family: "annulus", Params: map[string]float64{"thickness": 1.99, "density": 0}}, "density"},
		{"dumbbell-n2", Spec{Family: "dumbbell", Params: map[string]float64{"n": 2}}, "too small"},
		{"starclusters-radius", Spec{Family: "starclusters", Params: map[string]float64{"radius": 0.5}}, "radius"},
		{"uniform-n-huge", Spec{Family: "uniform", Params: map[string]float64{"n": 1e300}}, "exceeds the size limit"},
		{"uniform-density-inf", Spec{Family: "uniform", Params: map[string]float64{"density": math.Inf(1)}}, "outside"},
		{"gridholes-hole-huge", Spec{Family: "gridholes", Params: map[string]float64{"hole": 1e6}}, "too large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Generate(tc.spec, phys, 1)
			if err == nil {
				t.Fatalf("Generate(%v): want error containing %q, got nil", tc.spec, tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Generate(%v) error = %q, want substring %q", tc.spec, err, tc.wantSub)
			}
		})
	}
	// Defaults alone must build every family.
	if _, err := Generate(Spec{Family: "uniform"}, phys, 1); err != nil {
		t.Errorf("defaults-only uniform: %v", err)
	}
}

// TestDescribeListsEverything checks the -list catalogue names every
// family and every parameter.
func TestDescribeListsEverything(t *testing.T) {
	desc := Describe()
	for _, f := range Families() {
		if !strings.Contains(desc, f.Name+" — ") {
			t.Errorf("catalogue missing family %q", f.Name)
		}
		for _, p := range f.Params {
			if !strings.Contains(desc, p.Doc) {
				t.Errorf("catalogue missing doc for %s.%s", f.Name, p.Name)
			}
		}
	}
}

// TestBuilderSpecErrors pins the typed classification of builder-time
// failures: physics-dependent parameter rejections (values that pass
// the static bounds but cannot describe a deployment) carry *SpecError
// so CLIs exit 2 (usage), while exhausted connectivity retries stay
// plain runtime errors. This mirrors protocol.SpecError.
func TestBuilderSpecErrors(t *testing.T) {
	phys := sinr.DefaultParams()
	usage := []Spec{
		// dumbbell blob radius beyond the comm radius (static Max is inf).
		{Family: "dumbbell", Params: map[string]float64{"radius": 5}},
		// dumbbell too small for its own bridge relays.
		{Family: "dumbbell", Params: map[string]float64{"n": 3, "bridge": 20}},
		// lattice spacing beyond the comm radius disconnects the grid.
		{Family: "grid", Params: map[string]float64{"spacing": 2}},
		// hole larger than the carved lattice.
		{Family: "gridholes", Params: map[string]float64{"n": 16, "hole": 8}},
		// starclusters blob beyond commRadius/2.
		{Family: "starclusters", Params: map[string]float64{"radius": 0.5}},
		// gradient ramp below 1 is checked in the builder.
		{Family: "expchain", Params: map[string]float64{"first": 3}},
	}
	for _, sp := range usage {
		_, err := Generate(sp, phys, 1)
		if err == nil {
			t.Errorf("Generate(%v): want error", sp)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("Generate(%v) error %v is not a *SpecError", sp, err)
		}
	}

	// Statically invalid values never reach the builder and stay plain
	// (registry-level) errors, not SpecErrors.
	_, err := Generate(Spec{Family: "uniform", Params: map[string]float64{"n": -1}}, phys, 1)
	if err == nil {
		t.Fatal("want error for n=-1")
	}
	var se *SpecError
	if errors.As(err, &se) {
		t.Errorf("static range violation classified as SpecError: %v", err)
	}
}

// TestErrorTextVerbatim pins the full error text of every Parse and
// Validate failure class: the substring checks above would not notice
// a reworded message.
func TestErrorTextVerbatim(t *testing.T) {
	const known = "(known: annulus, clusteredpath, clusters, corridor, dumbbell, expchain, gaussian, gradient, grid, gridholes, path, starclusters, uniform)"
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"", `scenario: empty spec (want "family" or "family:name=value,...")`},
		{"  ", `scenario: empty spec (want "family" or "family:name=value,...")`},
		{"nosuchfamily", `scenario: unknown family "nosuchfamily" ` + known},
		{"nosuchfamily:n=4", `scenario: unknown family "nosuchfamily" ` + known},
		{"uniform:", `scenario: uniform: empty parameter list after ':'`},
		{"uniform: ", `scenario: uniform: empty parameter list after ':'`},
		{"uniform:n", `scenario: uniform: malformed parameter "n" (want name=value)`},
		{"uniform:n=", `scenario: uniform: malformed parameter "n=" (want name=value)`},
		{"uniform:=8", `scenario: uniform: malformed parameter "=8" (want name=value)`},
		{"uniform:n=4,", `scenario: uniform: malformed parameter "" (want name=value)`},
		{"uniform:bogus=1", `scenario: family uniform has no parameter "bogus" (has: n, density)`},
		{"uniform:n=abc", `scenario: uniform: parameter n="abc" is not a number`},
		{"uniform:n=1e400", `scenario: uniform: parameter n="1e400" is not a number`},
		{"uniform:n=4,n=5", `scenario: uniform: parameter "n" given twice`},
	} {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q): want error %q, got nil", tc.in, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("Parse(%q) error:\n got %q\nwant %q", tc.in, err, tc.want)
		}
	}
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Family: "nope"}, `scenario: unknown family "nope" ` + known},
		{Spec{Family: "uniform", Params: map[string]float64{"bogus": 1}}, `scenario: family uniform has no parameter "bogus" (has: n, density)`},
		{Spec{Family: "uniform", Params: map[string]float64{"n": 0}}, `scenario: uniform: parameter n=0 outside [1, +Inf]`},
		{Spec{Family: "path", Params: map[string]float64{"frac": 1.5}}, `scenario: path: parameter frac=1.5 outside [0, 1]`},
		{Spec{Family: "uniform", Params: map[string]float64{"density": math.NaN()}}, `scenario: uniform: parameter density=NaN outside [0, +Inf]`},
		{Spec{Family: "uniform", Params: map[string]float64{"density": math.Inf(1)}}, `scenario: uniform: parameter density=+Inf outside [0, +Inf]`},
		{Spec{Family: "uniform", Params: map[string]float64{"density": math.Inf(-1)}}, `scenario: uniform: parameter density=-Inf outside [0, +Inf]`},
		{Spec{Family: "uniform", Params: map[string]float64{"n": math.Inf(1)}}, `scenario: uniform: parameter n=+Inf outside [1, +Inf]`},
		{Spec{Family: "uniform", Params: map[string]float64{"n": 2.5}}, `scenario: uniform: parameter n=2.5 must be an integer`},
		{Spec{Family: "uniform", Params: map[string]float64{"n": 2e9}}, `scenario: uniform: parameter n=2e+09 exceeds the size limit 1e+09`},
		{Spec{Family: "uniform", Params: map[string]float64{"n": 1e300}}, `scenario: uniform: parameter n=1e+300 exceeds the size limit 1e+09`},
	} {
		err := Validate(tc.spec)
		if err == nil {
			t.Errorf("Validate(%v): want error %q, got nil", tc.spec, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("Validate(%v) error:\n got %q\nwant %q", tc.spec, err, tc.want)
		}
	}
}

// TestDescribeGolden pins the -list catalogue byte for byte.
// Regenerate with `go test ./internal/scenario -run TestDescribeGolden
// -update` after adding or documenting a family.
func TestDescribeGolden(t *testing.T) {
	path := filepath.Join("testdata", "describe.golden")
	got := Describe()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("Describe() differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
