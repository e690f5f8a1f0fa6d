package sinr

import (
	"math"
	"strings"
	"testing"
)

// keyCases covers defaults, non-terminating decimals (1/3 stresses the
// shortest-round-trip formatting), subnormal-ish extremes, and values
// with long decimal expansions.
var keyCases = []Params{
	DefaultParams(),
	{Alpha: 2, Beta: 1, Noise: 1e-9, Eps: 0.5},
	{Alpha: 2.5, Beta: 1.5, Noise: 1, Eps: 1.0 / 3.0},
	{Alpha: 4, Beta: 2, Noise: 0.1, Eps: 0.9999999999999},
	{Alpha: math.Pi, Beta: math.E, Noise: math.Sqrt2, Eps: 1.0 / 7.0},
}

func TestParamsKeyRoundTrip(t *testing.T) {
	for _, p := range keyCases {
		key := p.Key()
		got, err := ParseParamsKey(key)
		if err != nil {
			t.Fatalf("ParseParamsKey(%q): %v", key, err)
		}
		if got != p {
			t.Fatalf("round trip of %q: got %+v, want %+v", key, got, p)
		}
		// The key is canonical: re-rendering the parse reproduces it.
		if got.Key() != key {
			t.Fatalf("re-render of %q gave %q", key, got.Key())
		}
	}
}

func TestParamsKeyIsCanonicalForm(t *testing.T) {
	key := DefaultParams().Key()
	want := "alpha=3,beta=1.5,noise=1,eps=" + formatKeyValue(1.0/3.0)
	if key != want {
		t.Fatalf("DefaultParams().Key() = %q, want %q", key, want)
	}
}

func TestEngineKeyRoundTrip(t *testing.T) {
	for _, engine := range []string{"exact", "grid", "hier", "auto"} {
		for _, p := range keyCases {
			key := EngineKey(engine, p)
			gotEngine, gotP, err := ParseEngineKey(key)
			if err != nil {
				t.Fatalf("ParseEngineKey(%q): %v", key, err)
			}
			if gotEngine != engine || gotP != p {
				t.Fatalf("round trip of %q: got (%q, %+v), want (%q, %+v)",
					key, gotEngine, gotP, engine, p)
			}
		}
	}
}

func TestParseParamsKeyRejects(t *testing.T) {
	bad := []string{
		"",                                     // empty
		"alpha=3",                              // missing fields
		"alpha=3,beta=1.5,noise=1,eps=x",       // not a number
		"alpha=3,beta=1.5,noise=1,eps=1,eps=2", // duplicate
		"alpha=3,beta=1.5,noise=1,gamma=2",     // unknown field
		"alpha=3,beta=1.5,noise=1,eps",         // malformed pair
		// Numbers Key never prints: the parse would succeed, but the
		// text is not the key of the value.
		"alpha=0x1p-2,beta=1.5,noise=1,eps=0.5", // hex float
		"alpha=3,beta=1_5,noise=1,eps=0.5",      // digit separator
		"alpha=3,beta=1.5,noise=NaN,eps=0.5",    // NaN
		"alpha=3,beta=1.5,noise=1,eps=-Inf",     // infinity
		"alpha=+Inf,beta=1.5,noise=1,eps=0.5",   // infinity as Key spells it
		"alpha=3.0,beta=1.5,noise=1,eps=0.5",    // trailing zero
		"alpha=3,beta=+1.5,noise=1,eps=0.5",     // explicit sign
		"alpha=3,beta=15e-1,noise=1,eps=0.5",    // exponent form
		"alpha=3, beta=1.5,noise=1,eps=0.5",     // padding
		"beta=1.5,alpha=3,noise=1,eps=0.5",      // field order
	}
	for _, s := range bad {
		if _, err := ParseParamsKey(s); err == nil {
			t.Errorf("ParseParamsKey(%q) accepted malformed input", s)
		}
	}
	for _, s := range []string{"", "alpha=3,beta=1.5,noise=1,eps=0.3", "engine=,alpha=3,beta=1.5,noise=1,eps=0.3",
		"engine= hier,alpha=3,beta=1.5,noise=1,eps=0.3", " engine=hier,alpha=3,beta=1.5,noise=1,eps=0.3",
		"engine=hier,alpha=3,beta=1.5,noise=1,eps=0x1p-2"} {
		if _, _, err := ParseEngineKey(s); err == nil {
			t.Errorf("ParseEngineKey(%q) accepted malformed input", s)
		}
	}
}

// TestKeyDistinguishesParams pins the content-addressing property the
// serve cache rests on: distinct physical configurations never collide.
func TestKeyDistinguishesParams(t *testing.T) {
	seen := map[string]Params{}
	for _, p := range keyCases {
		for _, engine := range []string{"exact", "hier"} {
			k := EngineKey(engine, p)
			if prev, dup := seen[k]; dup && prev != p {
				t.Fatalf("key %q collides: %+v vs %+v", k, prev, p)
			}
			seen[k] = p
		}
	}
	if len(seen) != 2*len(keyCases) {
		t.Fatalf("expected %d distinct keys, got %d", 2*len(keyCases), len(seen))
	}
	a := EngineKey("exact", DefaultParams())
	b := EngineKey("hier", DefaultParams())
	if a == b || !strings.Contains(a, "engine=exact") {
		t.Fatalf("engine name not part of the key: %q vs %q", a, b)
	}
}

// keyFuzzSeeds is the shared seed corpus of the key parsers: valid
// keys, duplicate, missing and unknown fields, and non-numbers.
var keyFuzzSeeds = []string{
	DefaultParams().Key(),
	"alpha=2.5,beta=1.5,noise=1,eps=0.3",
	"eps=0.5, noise=1e-9 ,beta=1,alpha=2", // wrong field order, padded
	"alpha=3,beta=1.5,noise=1,eps=1,eps=2",
	"alpha=3,alpha=3,beta=1.5,noise=1,eps=0.3",
	"alpha=3,beta=1.5,noise=1",
	"",
	"alpha=3,beta=1.5,noise=1,eps=0.3,gamma=2",
	"alpha=3,beta=1.5,noise=1,eps=x",
	"alpha=0x1p-2,beta=1_5,noise=NaN,eps=-Inf",
	"alpha=3.0,beta=1.5,noise=1,eps=0.5",
	"alpha=+Inf,beta=1.5,noise=1,eps=0.5",
	"alpha=3,beta=15e-1,noise=1,eps=0.5",
	"alpha=3,beta=1.5,noise=1,eps=-0",
	"alpha=3,beta=1.5,noise=1,eps",
	"alpha=,beta=1.5,noise=1,eps=0.3",
	",,,",
}

// sameBits reports whether two Params are bit-identical, NaN payloads
// included.
func sameBits(a, b Params) bool {
	return math.Float64bits(a.Alpha) == math.Float64bits(b.Alpha) &&
		math.Float64bits(a.Beta) == math.Float64bits(b.Beta) &&
		math.Float64bits(a.Noise) == math.Float64bits(b.Noise) &&
		math.Float64bits(a.Eps) == math.Float64bits(b.Eps)
}

// FuzzParseParamsKey: no input panics, every accepted input is
// exactly the key of what it parses to, and that key round-trips to
// bit-identical Params.
func FuzzParseParamsKey(f *testing.F) {
	for _, s := range keyFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseParamsKey(s)
		if err != nil {
			return
		}
		key := p.Key()
		if key != s {
			t.Fatalf("%q accepted, but it parses to %+v whose key is %q", s, p, key)
		}
		if got, err := ParseParamsKey(key); err != nil || !sameBits(got, p) {
			t.Fatalf("%q parses to %+v; its key %q parses to %+v (err %v)", s, p, key, got, err)
		}
	})
}

// FuzzParseEngineKey: no input panics, every accepted input is
// exactly the EngineKey of what it parses to, and that key round-trips
// to the same engine name and bit-identical Params.
func FuzzParseEngineKey(f *testing.F) {
	for _, s := range keyFuzzSeeds {
		f.Add("engine=hier," + s)
	}
	for _, s := range []string{
		"engine=,alpha=3,beta=1.5,noise=1,eps=0.3",
		"engine=exact",
		"name=exact,alpha=3,beta=1.5,noise=1,eps=0.3",
		"engine=a=b,alpha=3,beta=1.5,noise=1,eps=0.3",
		"engine=hier,engine=grid,alpha=3,beta=1.5,noise=1,eps=0.3",
		DefaultParams().Key(),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		engine, p, err := ParseEngineKey(s)
		if err != nil {
			return
		}
		key := EngineKey(engine, p)
		if key != s {
			t.Fatalf("%q accepted, but it parses to (%q, %+v) whose key is %q", s, engine, p, key)
		}
		if gotEngine, got, err := ParseEngineKey(key); err != nil || gotEngine != engine || !sameBits(got, p) {
			t.Fatalf("%q parses to (%q, %+v); its key %q parses to (%q, %+v) (err %v)", s, engine, p, key, gotEngine, got, err)
		}
	})
}
