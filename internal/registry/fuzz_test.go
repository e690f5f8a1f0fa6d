package registry_test

import (
	"fmt"
	"testing"

	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
)

// FuzzParseRoundTrip checks the canonical compact form on both axes:
// whenever Parse(s) succeeds, Parse(s.String()) succeeds with the same
// String() and the same Validate verdict; when Parse(s) fails, it
// fails without panicking. The seed corpus under testdata/fuzz comes
// from the round-trip and error tables of both packages. Run it with
//
//	go test ./internal/registry -run '^$' -fuzz FuzzParseRoundTrip -fuzztime 60s
func FuzzParseRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		roundTrip(t, s, scenario.Parse, scenario.Validate)
		roundTrip(t, s, protocol.Parse, protocol.Validate)
	})
}

func roundTrip[S fmt.Stringer](t *testing.T, s string, parse func(string) (S, error), validate func(S) error) {
	sp, err := parse(s)
	if err != nil {
		return
	}
	canon := sp.String()
	again, err := parse(canon)
	if err != nil {
		t.Fatalf("Parse(%q) succeeded but its canonical form %q does not parse: %v", s, canon, err)
	}
	if got := again.String(); got != canon {
		t.Fatalf("Parse(%q): canonical form drifted %q -> %q", s, canon, got)
	}
	// Compare verdicts, not texts: with several invalid overrides the
	// one reported depends on map order.
	if v1, v2 := validate(sp), validate(again); (v1 == nil) != (v2 == nil) {
		t.Fatalf("Parse(%q): Validate verdict changed across the round trip: %v vs %v", s, v1, v2)
	}
}
