// Package protocol is the registry of communication algorithms: named,
// self-describing protocol runners that execute deterministically from
// a declarative Spec (protocol name + parameter map, parseable from the
// compact string form "nos:budgetmul=2,source=5").
//
// A protocol declares its typed parameters (name, default, range, doc),
// so command-line tools list the full catalogue with -list and
// experiments can sweep *every* registered protocol without naming any
// of them (exp.E13ProtocolMatrix races every protocol over every
// scenario family). The package is the algorithm axis of the paper's
// central comparison — algorithms against geometries — and, like
// internal/scenario on the geometry axis, a typed view over
// internal/registry, which owns parsing, validation, registration and
// the catalogue for both; this package adds what a protocol runs.
//
// Every runner returns a *broadcast.Result: the paper's broadcast
// algorithms and the baseline floods natively, the §5 applications
// (wake-up, consensus, leader election, alert) through a result adapter
// that maps "protocol completed correctly" onto Result.AllInformed.
// A registry run is a direct call of one library runner
// (broadcast.RunNoS, baseline.RunFloodOn, apps/*.Run, …) with the
// spec's parameters, so both give the same Result.
//
// Registering a protocol makes it visible everywhere at once: the
// broadcast-sim CLI (-alg/-list), the protocol×scenario matrix
// experiment E13, the registry-wide property tests, and the public
// sinrcast.RunProtocol.
package protocol

import (
	"fmt"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/network"
	"sinrcast/internal/registry"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// Channel builds the physical layer for a run. It matches
// broadcast.Config.Channel so runners can hand it straight through;
// nil always means "each protocol's default", the exact SINR engine.
type Channel = func(net *network.Network) (sim.Resolver, error)

// NamedChannel maps an -engine selection onto a Channel — the single
// adapter behind every engine flag (broadcast-sim, experiments E14,
// sinrcast.RunProtocolOn). "" and "exact" return a nil Channel (each
// protocol's default is already the exact engine); unknown names
// error, so CLIs can classify them as usage errors.
func NamedChannel(name string) (Channel, error) {
	switch name {
	case "", "exact":
		return nil, nil
	case "grid", "hier", "auto":
		return func(net *network.Network) (sim.Resolver, error) {
			r, err := sinr.NewNamedEngine(name, net.Space, net.Params)
			if err != nil {
				return nil, err
			}
			return r, nil
		}, nil
	default:
		return nil, fmt.Errorf("protocol: unknown engine %q (want exact, grid, hier or auto)", name)
	}
}

// Param describes one parameter of a protocol. Runners may apply
// stricter, network-dependent checks (e.g. source < n) than its static
// bounds.
type Param = registry.Param

// SpecError marks a spec-vs-network mismatch: the parameters are
// statically valid (Validate passes) but disagree with the concrete
// network — a source index or waker count beyond n. CLIs classify it
// as a usage error (exit 2), not a runtime failure. It is the same
// type as scenario.SpecError.
type SpecError = registry.SpecError

// protocols is the protocol registry; its wording is fixed here.
var protocols = registry.New(registry.Words{
	Pkg: "protocol", Kind: "protocol", Owner: "",
	Head: "name", Key: "param", Func: "Run", Reader: "runner",
}, func(p *Protocol) registry.Decl {
	return registry.Decl{Name: p.Name, Doc: p.Doc, Params: p.Params, HasFunc: p.Run != nil}
})

// values lets Build embed registry.Values under an unexported name.
type values = registry.Values

// Build carries the resolved inputs of one execution: the seed and the
// protocol's parameter values with defaults filled in and ranges
// checked. Float and Int return a resolved value; they panic on
// undeclared names, a bug in the protocol definition.
type Build struct {
	// Seed drives all protocol randomness.
	Seed uint64

	values
	channel Channel
}

// Channel returns the physical-layer factory of this run (nil = the
// protocol's default engine). Runners thread it into their entry
// points; see RunOn.
func (b Build) Channel() Channel { return b.channel }

// Protocol is one registered algorithm.
type Protocol struct {
	// Name identifies the protocol in Spec strings; lowercase.
	Name string
	// Doc is a one-line description shown by -list.
	Doc string
	// Params declares the accepted parameters in display order.
	Params []Param
	// Run executes the protocol on the network. It must be
	// deterministic in (net, Build.Seed, params): same inputs, same
	// Result, regardless of goroutine or engine worker count.
	Run func(net *network.Network, b Build) (*broadcast.Result, error)
}

// Register adds a protocol to the registry. It panics on an empty or
// duplicate name, a missing Run function, or a Param whose default
// violates its own bounds — all programming errors caught at init.
func Register(p Protocol) { protocols.Register(p) }

// Lookup returns the named protocol.
func Lookup(name string) (*Protocol, bool) { return protocols.Lookup(name) }

// Protocols returns every registered protocol sorted by name.
func Protocols() []*Protocol { return protocols.All() }

// Names returns the sorted names of all registered protocols.
func Names() []string { return protocols.Names() }

// Describe renders the catalogue of registered protocols with their
// parameter docs — the text behind the CLI's -list flag.
func Describe() string { return protocols.Describe() }

// Spec is a declarative protocol selection: a registered protocol name
// plus parameter overrides. The zero value of Params means "all
// defaults". A Spec, a network, and a seed fully determine the
// execution (see Run).
type Spec struct {
	Name   string
	Params map[string]float64
}

// String renders the canonical compact form "name:k=v,k=v" with
// parameters sorted by name; Parse(s.String()) reproduces s exactly.
func (s Spec) String() string { return registry.Format(s.Name, s.Params) }

// Parse reads the compact spec form "name" or
// "name:param=value,param=value". The protocol must be registered and
// every parameter declared by it; values must parse as numbers. (Range
// and integrality are checked by Run, so specs built programmatically
// get the same validation.)
func Parse(s string) (Spec, error) {
	name, params, err := protocols.Parse(s)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Name: name, Params: params}, nil
}

// Validate checks a spec against the registry without running it:
// the protocol must exist and every override must be declared,
// in range, and integral where required. CLIs use it to classify
// bad specs as usage errors before any network is built.
func Validate(spec Spec) error {
	_, _, err := protocols.Resolve(spec.Name, spec.Params)
	return err
}

// Run executes the protocol described by spec on the network under the
// given seed. Defaults fill omitted parameters; unknown names,
// out-of-range values, and fractional values for integer parameters
// are rejected. The execution is deterministic in (net, spec, seed).
// The physical layer is each protocol's default — the exact SINR
// engine, the paper's model; RunOn selects a different one.
func Run(net *network.Network, spec Spec, seed uint64) (*broadcast.Result, error) {
	return RunOn(net, spec, seed, nil)
}

// RunOn is Run with an explicit physical-layer factory. Every runner
// threads it into its underlying entry point (broadcast.Config.Channel,
// baseline.RunFloodOn, the app configs), so one -engine flag selects
// the engine for any registered protocol. nil keeps the default exact
// engine. Approximate engines (grid/hier/auto on large n) change
// physics slightly — results are deterministic but not comparable
// bit-for-bit with exact-engine runs.
func RunOn(net *network.Network, spec Spec, seed uint64, ch Channel) (*broadcast.Result, error) {
	p, v, err := protocols.Resolve(spec.Name, spec.Params)
	if err != nil {
		return nil, err
	}
	return p.Run(net, Build{Seed: seed, values: v, channel: ch})
}
