package protocol

import (
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

var update = flag.Bool("update", false, "rewrite the golden catalogue under testdata/")

// TestSpecStringGolden pins the canonical compact form: parameters
// sorted by name, shortest float rendering, name alone when no
// parameters are set.
func TestSpecStringGolden(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Name: "nos"}, "nos"},
		{Spec{Name: "nos", Params: map[string]float64{"source": 5, "budgetmul": 2}}, "nos:budgetmul=2,source=5"},
		{Spec{Name: "oracle", Params: map[string]float64{"c": 0.25, "budget": 500}}, "oracle:budget=500,c=0.25"},
		{Spec{Name: "consensus", Params: map[string]float64{"x": 31}}, "consensus:x=31"},
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
		{"nos", "nos"},
		{"nos:source=3,budgetmul=2", "nos:budgetmul=2,source=3"},
		{" s:maxtxprob=0.5 , cprob=4 ", "s:cprob=4,maxtxprob=0.5"},
		{"wakeup:wakers=4,stagger=0.25", "wakeup:stagger=0.25,wakers=4"},
		{"alert:raised=0", "alert:raised=0"},
		{"leader", "leader"},
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
		{"nosuchproto", "unknown protocol"},
		{"nosuchproto:x=1", "unknown protocol"},
		{"nos:", "empty parameter list"},
		{"nos:source", "malformed parameter"},
		{"nos:source=", "malformed parameter"},
		{"nos:=3", "malformed parameter"},
		{"nos:bogus=1", "no parameter \"bogus\""},
		{"nos:source=abc", "not a number"},
		{"nos:source=1,source=2", "given twice"},
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

// TestRunValidation checks range, integrality and unknown-name
// rejection for programmatically built specs, plus the
// network-dependent checks of individual runners.
func TestRunValidation(t *testing.T) {
	net, err := scenario.Generate(scenario.Spec{Family: "grid", Params: map[string]float64{"n": 16, "spacing": 0.5}},
		sinr.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec    Spec
		wantSub string
	}{
		{Spec{Name: "nope"}, "unknown protocol"},
		{Spec{Name: "nos", Params: map[string]float64{"bogus": 1}}, "no parameter"},
		{Spec{Name: "nos", Params: map[string]float64{"source": -1}}, "outside"},
		{Spec{Name: "nos", Params: map[string]float64{"source": 2.5}}, "must be an integer"},
		{Spec{Name: "nos", Params: map[string]float64{"source": 2e9}}, "outside"},
		{Spec{Name: "nos", Params: map[string]float64{"maxtxprob": math.Inf(1)}}, "outside"},
		{Spec{Name: "nos", Params: map[string]float64{"source": 99}}, "outside"},
		{Spec{Name: "nosmulti", Params: map[string]float64{"sources": 99}}, "exceeds n"},
		{Spec{Name: "wakeup", Params: map[string]float64{"wakers": 99}}, "exceeds n"},
		{Spec{Name: "alert", Params: map[string]float64{"raised": 99}}, "exceeds n"},
	} {
		_, err := Run(net, tc.spec, 1)
		if err == nil {
			t.Errorf("Run(%v): want error containing %q, got nil", tc.spec, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Run(%v) error = %q, want substring %q", tc.spec, err, tc.wantSub)
		}
	}
	// Spec-vs-network mismatches carry the typed SpecError so CLIs can
	// classify them as usage errors.
	for _, spec := range []Spec{
		{Name: "nos", Params: map[string]float64{"source": 99}},
		{Name: "wakeup", Params: map[string]float64{"wakers": 99}},
	} {
		_, err := Run(net, spec, 1)
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("Run(%v) error %v is not a *SpecError", spec, err)
		}
	}
}

// TestDescribeListsEverything checks the -list catalogue names every
// protocol and every parameter.
func TestDescribeListsEverything(t *testing.T) {
	desc := Describe()
	for _, p := range Protocols() {
		if !strings.Contains(desc, p.Name+" — ") {
			t.Errorf("catalogue missing protocol %q", p.Name)
		}
		for _, q := range p.Params {
			if !strings.Contains(desc, q.Doc) {
				t.Errorf("catalogue missing doc for %s.%s", p.Name, q.Name)
			}
		}
	}
}

// TestRegistryCoversEveryMigratedAlgorithm pins the migration: all six
// former broadcast-sim switch arms plus the multi-source engine and
// the four §5 applications are one Lookup away.
func TestRegistryCoversEveryMigratedAlgorithm(t *testing.T) {
	for _, name := range []string{
		"nos", "s", "nosmulti",
		"decay", "daum", "oracle", "tdma",
		"wakeup", "consensus", "leader", "alert",
	} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("protocol %q not registered", name)
		}
	}
	if len(Names()) < 11 {
		t.Errorf("registry has %d protocols, want >= 11", len(Names()))
	}
}

// TestErrorTextVerbatim pins the full error text of every Parse and
// Validate failure class: the substring checks above would not notice
// a reworded message. Every integer protocol parameter declares the
// size limit 1e9 as its Max, so values beyond it fail the range check.
func TestErrorTextVerbatim(t *testing.T) {
	const known = "(known: alert, consensus, daum, decay, leader, nos, nosmulti, oracle, s, tdma, wakeup)"
	const nosParams = "(has: source, txrounds, cprob, maxtxprob, gamma, budgetmul)"
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"", `protocol: empty spec (want "name" or "name:param=value,...")`},
		{"  ", `protocol: empty spec (want "name" or "name:param=value,...")`},
		{"nosuchproto", `protocol: unknown protocol "nosuchproto" ` + known},
		{"nosuchproto:x=1", `protocol: unknown protocol "nosuchproto" ` + known},
		{"nos:", `protocol: nos: empty parameter list after ':'`},
		{"nos: ", `protocol: nos: empty parameter list after ':'`},
		{"nos:source", `protocol: nos: malformed parameter "source" (want param=value)`},
		{"nos:source=", `protocol: nos: malformed parameter "source=" (want param=value)`},
		{"nos:=3", `protocol: nos: malformed parameter "=3" (want param=value)`},
		{"nos:source=3,", `protocol: nos: malformed parameter "" (want param=value)`},
		{"nos:bogus=1", `protocol: nos has no parameter "bogus" ` + nosParams},
		{"nos:source=abc", `protocol: nos: parameter source="abc" is not a number`},
		{"nos:source=1e400", `protocol: nos: parameter source="1e400" is not a number`},
		{"nos:source=1,source=2", `protocol: nos: parameter "source" given twice`},
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
		{Spec{Name: "nope"}, `protocol: unknown protocol "nope" ` + known},
		{Spec{Name: "nos", Params: map[string]float64{"bogus": 1}}, `protocol: nos has no parameter "bogus" ` + nosParams},
		{Spec{Name: "nos", Params: map[string]float64{"source": -1}}, `protocol: nos: parameter source=-1 outside [0, 1e+09]`},
		{Spec{Name: "nos", Params: map[string]float64{"maxtxprob": 2}}, `protocol: nos: parameter maxtxprob=2 outside [1e-06, 1]`},
		{Spec{Name: "nos", Params: map[string]float64{"maxtxprob": math.NaN()}}, `protocol: nos: parameter maxtxprob=NaN outside [1e-06, 1]`},
		{Spec{Name: "nos", Params: map[string]float64{"maxtxprob": math.Inf(1)}}, `protocol: nos: parameter maxtxprob=+Inf outside [1e-06, 1]`},
		{Spec{Name: "nos", Params: map[string]float64{"maxtxprob": math.Inf(-1)}}, `protocol: nos: parameter maxtxprob=-Inf outside [1e-06, 1]`},
		{Spec{Name: "nos", Params: map[string]float64{"source": 2.5}}, `protocol: nos: parameter source=2.5 must be an integer`},
		{Spec{Name: "nos", Params: map[string]float64{"source": 2e9}}, `protocol: nos: parameter source=2e+09 outside [0, 1e+09]`},
		{Spec{Name: "consensus", Params: map[string]float64{"x": 1e300}}, `protocol: consensus: parameter x=1e+300 outside [1, 1e+09]`},
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
// Regenerate with `go test ./internal/protocol -run TestDescribeGolden
// -update` after adding or documenting a protocol.
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
