// Package registry is the generic machinery behind the declarative
// spec registries: internal/scenario (topology families) and
// internal/protocol (communication algorithms), the two axes of the
// paper's central comparison — algorithms against geometries.
//
// A registered entry declares typed parameters (name, default, range,
// doc). The registry owns everything that does not depend on what an
// entry builds or runs: the canonical compact form "name:k=v,…"
// (Format and Parse), default filling with range, integrality and
// size checks (Resolve), registration and its init-time panics,
// lookup, the sorted listing, the -list catalogue (Describe), and the
// SpecError type. Each axis is a thin typed view over one Registry
// whose message wording is fixed by its Words, so a new axis needs no
// copy of this code.
package registry

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// MaxInt caps integer parameters (station counts, station indices,
// message-domain bounds, …): large enough for any real run, small
// enough that int conversion and slice allocation stay well-defined.
const MaxInt = 1e9

// Param describes one parameter of a registered entry.
type Param struct {
	// Name is the key used in spec parameter maps and the compact
	// string form.
	Name string
	// Doc is a one-line description shown by -list.
	Doc string
	// Default is the value used when a spec omits the parameter.
	Default float64
	// Min and Max bound the accepted values (inclusive). Builders and
	// runners may apply stricter, context-dependent checks (spacing ≤
	// comm radius, source < n) that static bounds cannot express.
	Min, Max float64
	// Int marks integer-valued parameters (station counts, indices).
	Int bool
}

// Decl is what the registry needs to know about one entry.
type Decl struct {
	Name   string
	Doc    string
	Params []Param
	// HasFunc reports that the entry's Build or Run function is set.
	HasFunc bool
}

// Words is the fixed wording of one axis's messages; an axis declares
// it once, unexported, and every message of its registry reads from
// it. The comments give the scenario axis's values.
type Words struct {
	Pkg    string // message prefix: "scenario"
	Kind   string // what an entry is: "family"
	Owner  string // prefix naming an entry as owner of its parameters: "family "
	Head   string // entry-name placeholder of the usage hint: "family"
	Key    string // parameter-name placeholder of the usage hint: "name"
	Func   string // the entry's required function field: "Build"
	Reader string // who reads resolved parameters: "builder"
}

// SpecError marks a spec that passes static validation but mismatches
// its context: a scenario builder rejecting a physics-dependent
// combination (dumbbell radius beyond the comm radius), or a protocol
// runner rejecting a parameter against the concrete network (source ≥
// n). CLIs classify it as a usage error (exit 2), not a runtime
// failure; genuine runtime failures stay plain errors.
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return e.msg }

// SpecErrorf builds a SpecError; used by builders and runners for
// their context-dependent parameter checks.
func SpecErrorf(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

// Values are an entry's resolved parameters: every declared name, with
// defaults filled in and overrides checked.
type Values struct {
	words *Words
	m     map[string]float64
}

// Float returns the resolved value of a declared parameter. It panics
// on undeclared names: that is a bug in the entry's definition, not a
// user error (user input is checked before Values exist).
func (v Values) Float(name string) float64 {
	x, ok := v.m[name]
	if !ok {
		panic(fmt.Sprintf("%s: %s read undeclared parameter %q", v.words.Pkg, v.words.Reader, name))
	}
	return x
}

// Int returns a declared integer parameter.
func (v Values) Int(name string) int { return int(v.Float(name)) }

// Registry holds the entries of one axis, keyed by name. E is the
// axis's entry type (scenario.Family, protocol.Protocol); decl reads
// the registry's view of it.
type Registry[E any] struct {
	words   Words
	decl    func(*E) Decl
	mu      sync.RWMutex
	entries map[string]*E
}

// New returns an empty registry with the given wording.
func New[E any](words Words, decl func(*E) Decl) *Registry[E] {
	return &Registry[E]{words: words, decl: decl, entries: map[string]*E{}}
}

// Register adds an entry. It panics on an empty or duplicate name, a
// missing Build/Run function, or a Param whose default violates its
// own bounds — all programming errors caught at init.
func (r *Registry[E]) Register(e E) {
	w, d := &r.words, r.decl(&e)
	if d.Name == "" {
		panic(fmt.Sprintf("%s: Register with empty %s name", w.Pkg, w.Kind))
	}
	if !d.HasFunc {
		panic(fmt.Sprintf("%s: %s%q has no %s function", w.Pkg, w.Owner, d.Name, w.Func))
	}
	seen := map[string]bool{}
	for _, p := range d.Params {
		if p.Name == "" || seen[p.Name] {
			panic(fmt.Sprintf("%s: %s%q declares empty or duplicate parameter %q", w.Pkg, w.Owner, d.Name, p.Name))
		}
		seen[p.Name] = true
		if p.Default < p.Min || p.Default > p.Max {
			panic(fmt.Sprintf("%s: %s%q parameter %q default %v outside [%v, %v]",
				w.Pkg, w.Owner, d.Name, p.Name, p.Default, p.Min, p.Max))
		}
		if p.Int && p.Default != math.Trunc(p.Default) {
			panic(fmt.Sprintf("%s: %s%q integer parameter %q has fractional default %v",
				w.Pkg, w.Owner, d.Name, p.Name, p.Default))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[d.Name]; dup {
		panic(fmt.Sprintf("%s: %s%q registered twice", w.Pkg, w.Owner, d.Name))
	}
	r.entries[d.Name] = &e
}

// Lookup returns the named entry.
func (r *Registry[E]) Lookup(name string) (*E, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Names returns the sorted names of all registered entries.
func (r *Registry[E]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedKeys(r.entries)
}

// All returns every registered entry sorted by name.
func (r *Registry[E]) All() []*E {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*E, 0, len(r.entries))
	for _, name := range sortedKeys(r.entries) {
		out = append(out, r.entries[name])
	}
	return out
}

// Describe renders the catalogue of registered entries with their
// parameter docs — the text behind every CLI's -list flag.
func (r *Registry[E]) Describe() string {
	var sb strings.Builder
	for _, e := range r.All() {
		d := r.decl(e)
		fmt.Fprintf(&sb, "%s — %s\n", d.Name, d.Doc)
		width := 0
		for _, p := range d.Params {
			width = max(width, len(p.Name))
		}
		for _, p := range d.Params {
			kind := ""
			if p.Int {
				kind = ", int"
			}
			fmt.Fprintf(&sb, "    %-*s  %s (default %s%s)\n", width, p.Name, p.Doc, formatValue(p.Default), kind)
		}
	}
	return sb.String()
}

// Format renders the canonical compact form "name:k=v,k=v" with
// parameters sorted by key, or the name alone when there are none;
// parsing the result reproduces the same parameters exactly.
func Format(name string, params map[string]float64) string {
	if len(params) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for i, k := range sortedKeys(params) {
		if i == 0 {
			sb.WriteByte(':')
		} else {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(formatValue(params[k]))
	}
	return sb.String()
}

// sortedKeys returns the keys of m in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	keys := slices.AppendSeq(make([]string, 0, len(m)), maps.Keys(m))
	slices.Sort(keys)
	return keys
}

// formatValue renders a parameter value in the shortest form that
// round-trips through strconv.ParseFloat.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Parse reads the compact form "name" or "name:key=value,key=value".
// The entry must be registered and every key declared by it; values
// must parse as numbers. params is nil when s names no parameters.
// Range and integrality are checked by Resolve, so specs built
// programmatically get the same validation.
func (r *Registry[E]) Parse(s string) (name string, params map[string]float64, err error) {
	w := &r.words
	s = strings.TrimSpace(s)
	if s == "" {
		return "", nil, fmt.Errorf("%s: empty spec (want %q or \"%s:%s=value,...\")", w.Pkg, w.Head, w.Head, w.Key)
	}
	name, rest, hasParams := strings.Cut(s, ":")
	_, d, err := r.find(name)
	if err != nil {
		return "", nil, err
	}
	if !hasParams {
		return name, nil, nil
	}
	if strings.TrimSpace(rest) == "" {
		return "", nil, fmt.Errorf("%s: %s: empty parameter list after ':'", w.Pkg, name)
	}
	params = map[string]float64{}
	for _, pair := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(pair, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return "", nil, fmt.Errorf("%s: %s: malformed parameter %q (want %s=value)", w.Pkg, name, pair, w.Key)
		}
		if _, err := r.param(d, key); err != nil {
			return "", nil, err
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %s: parameter %s=%q is not a number", w.Pkg, name, key, val)
		}
		if _, dup := params[key]; dup {
			return "", nil, fmt.Errorf("%s: %s: parameter %q given twice", w.Pkg, name, key)
		}
		params[key] = v
	}
	return name, params, nil
}

// Resolve looks up the named entry and returns it with its full
// parameter set: defaults for omitted keys, and every override checked
// to be declared, in range, finite, and integral and within MaxInt
// where the parameter is an integer.
func (r *Registry[E]) Resolve(name string, params map[string]float64) (*E, Values, error) {
	w := &r.words
	e, d, err := r.find(name)
	if err != nil {
		return nil, Values{}, err
	}
	resolved := make(map[string]float64, len(d.Params))
	for _, p := range d.Params {
		resolved[p.Name] = p.Default
	}
	for key, v := range params {
		p, err := r.param(d, key)
		if err != nil {
			return nil, Values{}, err
		}
		if v < p.Min || v > p.Max || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, Values{}, fmt.Errorf("%s: %s: parameter %s=%s outside [%s, %s]",
				w.Pkg, name, key, formatValue(v), formatValue(p.Min), formatValue(p.Max))
		}
		if p.Int {
			if v != math.Trunc(v) {
				return nil, Values{}, fmt.Errorf("%s: %s: parameter %s=%s must be an integer",
					w.Pkg, name, key, formatValue(v))
			}
			// Bound sizes before int conversion: huge values would
			// overflow int or hang allocation, not configure anything.
			if math.Abs(v) > MaxInt {
				return nil, Values{}, fmt.Errorf("%s: %s: parameter %s=%s exceeds the size limit %s",
					w.Pkg, name, key, formatValue(v), formatValue(MaxInt))
			}
		}
		resolved[key] = v
	}
	return e, Values{words: w, m: resolved}, nil
}

// find returns the named entry and its Decl, or the unknown-name error.
func (r *Registry[E]) find(name string) (*E, Decl, error) {
	e, ok := r.Lookup(name)
	if !ok {
		return nil, Decl{}, fmt.Errorf("%s: unknown %s %q (known: %s)",
			r.words.Pkg, r.words.Kind, name, strings.Join(r.Names(), ", "))
	}
	return e, r.decl(e), nil
}

// param returns the declared parameter key of d, or the
// undeclared-parameter error listing what d does declare.
func (r *Registry[E]) param(d Decl, key string) (Param, error) {
	if i := slices.IndexFunc(d.Params, func(p Param) bool { return p.Name == key }); i >= 0 {
		return d.Params[i], nil
	}
	names := make([]string, len(d.Params))
	for i, p := range d.Params {
		names[i] = p.Name
	}
	return Param{}, fmt.Errorf("%s: %s%s has no parameter %q (has: %s)",
		r.words.Pkg, r.words.Owner, d.Name, key, strings.Join(names, ", "))
}
