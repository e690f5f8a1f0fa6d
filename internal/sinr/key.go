package sinr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Canonical parameter keys. A Params value renders to exactly one
// string and parses back bit-exactly, so physical configurations can
// be compared, logged, and used as cache-key components: the serve
// layer's content-addressed engine cache is keyed by
// (scenario spec, EngineKey, seed), and the CLIs print the key so a
// run's physics can be quoted verbatim in a reproduction.

// Key renders the canonical compact form
// "alpha=A,beta=B,noise=N,eps=E" with each value formatted in the
// shortest representation that round-trips through strconv.ParseFloat.
// ParseParamsKey(p.Key()) reproduces p bit-exactly.
func (p Params) Key() string {
	var sb strings.Builder
	sb.WriteString("alpha=")
	sb.WriteString(formatKeyValue(p.Alpha))
	sb.WriteString(",beta=")
	sb.WriteString(formatKeyValue(p.Beta))
	sb.WriteString(",noise=")
	sb.WriteString(formatKeyValue(p.Noise))
	sb.WriteString(",eps=")
	sb.WriteString(formatKeyValue(p.Eps))
	return sb.String()
}

// EngineKey prefixes the canonical parameter key with an engine name:
// "engine=hier,alpha=A,beta=B,noise=N,eps=E". Together with a scenario
// spec and a seed it content-addresses a warmed engine: same key, same
// topology slabs, byte-identical Resolve output.
func EngineKey(engine string, p Params) string {
	return "engine=" + engine + "," + p.Key()
}

func formatKeyValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// keyFields are the fields of a params key, in the order Key prints
// them.
var keyFields = [...]string{"alpha", "beta", "noise", "eps"}

// ParseParamsKey reads the canonical form produced by Params.Key and
// nothing else: the four fields in Key's order, no padding, and each
// value spelled exactly as Key prints it. Other spellings of a number
// (hex floats, digit separators, "3.0", "+1"), NaN and infinities are
// rejected, so every accepted string is the key of the Params it
// parses to — ParseParamsKey(s) succeeds only when Key reproduces s —
// and a key names one configuration under one spelling.
func ParseParamsKey(s string) (Params, error) {
	pairs := strings.Split(s, ",")
	if len(pairs) != len(keyFields) {
		return Params{}, fmt.Errorf("sinr: params key %q has %d fields, want %s", s, len(pairs), strings.Join(keyFields[:], ","))
	}
	var v [len(keyFields)]float64
	for i, pair := range pairs {
		name, val, ok := strings.Cut(pair, "=")
		if !ok || name != keyFields[i] {
			return Params{}, fmt.Errorf("sinr: params key field %d is %q, want %s=value", i+1, pair, keyFields[i])
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
			return Params{}, fmt.Errorf("sinr: params key field %s=%q is not a finite number", name, val)
		}
		if want := formatKeyValue(x); val != want {
			return Params{}, fmt.Errorf("sinr: params key field %s=%q is not canonical (want %s=%s)", name, val, name, want)
		}
		v[i] = x
	}
	return Params{Alpha: v[0], Beta: v[1], Noise: v[2], Eps: v[3]}, nil
}

// ParseEngineKey reads the form produced by EngineKey: the leading
// "engine=name" field followed by the canonical parameter key, with
// the same strictness — EngineKey reproduces every accepted string.
func ParseEngineKey(s string) (engine string, p Params, err error) {
	head, rest, ok := strings.Cut(s, ",")
	name, val, okHead := strings.Cut(head, "=")
	if !ok || !okHead || name != "engine" || val == "" || strings.TrimSpace(val) != val {
		return "", Params{}, fmt.Errorf("sinr: engine key %q must start with \"engine=name,\"", s)
	}
	p, err = ParseParamsKey(rest)
	if err != nil {
		return "", Params{}, err
	}
	return val, p, nil
}
