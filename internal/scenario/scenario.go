// Package scenario is the registry of topology families: named,
// self-describing network generators that build deterministic
// deployments from a declarative Spec (family name + parameter map,
// parseable from the compact string form "uniform:n=256,density=8").
//
// Every family declares its typed parameters (name, default, range,
// doc), so command-line tools list the full catalogue with -list and
// experiments can sweep *every* registered family without naming any
// of them (exp.E12CrossFamilySweep). Every generated network is built
// here; the public sinrcast.Generate* helpers are fixed specs.
//
// The package is the geometry axis of the paper's comparison, a typed
// view over internal/registry: parsing, validation, registration and
// the catalogue live there, shared with internal/protocol (the
// algorithm axis); this package adds what a family builds.
//
// Registering a family makes it visible everywhere at once: the four
// CLIs (netgen, broadcast-sim, experiments, coloring-viz), the
// cross-family sweep, the registry-wide property tests, and the public
// sinrcast.Generate.
package scenario

import (
	"slices"

	"sinrcast/internal/network"
	"sinrcast/internal/registry"
	"sinrcast/internal/rng"
	"sinrcast/internal/sinr"
)

// Param describes one parameter of a topology family. Builders may
// apply stricter, physics-dependent checks (e.g. spacing ≤ comm
// radius) than its static bounds.
type Param = registry.Param

// SpecError marks a spec-vs-physics mismatch detected inside a
// builder: the parameters are statically valid (Validate passes) but
// their combination cannot describe a deployment — a dumbbell blob
// radius beyond the communication radius, a lattice spacing that
// disconnects the grid, a hole larger than the lattice. CLIs classify
// it as a usage error (exit 2); genuine runtime failures (a densifying
// generator exhausting its connectivity-retry budget) stay plain
// errors. It is the same type as protocol.SpecError.
type SpecError = registry.SpecError

// families is the family registry; its wording is fixed here.
var families = registry.New(registry.Words{
	Pkg: "scenario", Kind: "family", Owner: "family ",
	Head: "family", Key: "name", Func: "Build", Reader: "builder",
}, func(f *Family) registry.Decl {
	return registry.Decl{Name: f.Name, Doc: f.Doc, Params: f.Params, HasFunc: f.Build != nil}
})

// values lets Build embed registry.Values under an unexported name.
type values = registry.Values

// Build carries the resolved inputs of one generation: physical
// parameters, seed, and the family's parameter values with defaults
// filled in and ranges checked. Float and Int return a resolved value;
// they panic on undeclared names, a bug in the family definition.
type Build struct {
	// Phys are the physical parameters (notably ε, which fixes the
	// communication radius 1-ε).
	Phys sinr.Params
	// Seed drives all sampling.
	Seed uint64

	values
}

// Rng returns a fresh deterministic stream seeded from Build.Seed.
func (b Build) Rng() *rng.Source { return rng.New(b.Seed) }

// Family is one registered topology generator.
type Family struct {
	// Name identifies the family in Spec strings; lowercase.
	Name string
	// Doc is a one-line description shown by -list.
	Doc string
	// Params declares the accepted parameters in display order.
	Params []Param
	// ForN returns parameter overrides sizing the family to ≈n
	// stations, for cross-family sweeps at matched n. When nil,
	// SpecForN sets the parameter literally named "n" if one exists.
	ForN func(n int) map[string]float64
	// Build generates the deployment. It must be deterministic in
	// (Build.Phys, Build.Seed, params): same inputs, byte-identical
	// positions.
	Build func(b Build) (*network.Network, error)
}

// SpecForN returns a Spec sizing the family to approximately n
// stations (exactly n for most families).
func (f *Family) SpecForN(n int) Spec {
	if f.ForN != nil {
		return Spec{Family: f.Name, Params: f.ForN(n)}
	}
	if slices.ContainsFunc(f.Params, func(p Param) bool { return p.Name == "n" }) {
		return Spec{Family: f.Name, Params: map[string]float64{"n": float64(n)}}
	}
	return Spec{Family: f.Name}
}

// Register adds a family to the registry. It panics on an empty or
// duplicate name, a missing Build function, or a Param whose default
// violates its own bounds — all programming errors caught at init.
func Register(f Family) { families.Register(f) }

// Lookup returns the named family.
func Lookup(name string) (*Family, bool) { return families.Lookup(name) }

// Families returns every registered family sorted by name.
func Families() []*Family { return families.All() }

// Names returns the sorted names of all registered families.
func Names() []string { return families.Names() }

// Describe renders the catalogue of registered families with their
// parameter docs — the text behind every CLI's -list flag.
func Describe() string { return families.Describe() }

// Spec is a declarative scenario: a family name plus parameter
// overrides. The zero value of Params means "all defaults". A Spec,
// the physical parameters, and a seed fully determine the generated
// network (see Generate).
type Spec struct {
	Family string
	Params map[string]float64
}

// String renders the canonical compact form "family:k=v,k=v" with
// parameters sorted by name; Parse(s.String()) reproduces s exactly.
func (s Spec) String() string { return registry.Format(s.Family, s.Params) }

// Parse reads the compact spec form "family" or
// "family:name=value,name=value". The family must be registered and
// every parameter declared by it; values must parse as numbers.
// (Range and integrality are checked by Generate, so specs built
// programmatically get the same validation.)
func Parse(s string) (Spec, error) {
	name, params, err := families.Parse(s)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Family: name, Params: params}, nil
}

// Validate checks a spec against the registry without building it:
// the family must exist and every override must be declared, in
// range, and integral where required. (Builders may still reject
// physics-dependent combinations at Generate time.) CLIs use it to
// classify bad specs as usage errors.
func Validate(spec Spec) error {
	_, _, err := families.Resolve(spec.Family, spec.Params)
	return err
}

// Generate builds the network described by spec under the given
// physical parameters and seed. Defaults fill omitted parameters;
// unknown names, out-of-range values, and fractional values for
// integer parameters are rejected.
func Generate(spec Spec, phys sinr.Params, seed uint64) (*network.Network, error) {
	f, v, err := families.Resolve(spec.Family, spec.Params)
	if err != nil {
		return nil, err
	}
	return f.Build(Build{Phys: phys, Seed: seed, values: v})
}
