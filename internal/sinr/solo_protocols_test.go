package sinr_test

import (
	"reflect"
	"testing"

	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sinr"
)

// TestSoloMemoMatchesResolve pins the single-transmitter memo on whole
// runs: every registered protocol, on every engine kind, produces a
// deeply equal result — informed set, round counts and Metrics —
// whether solo rounds are replayed from the memo or resolved afresh
// every time.
func TestSoloMemoMatchesResolve(t *testing.T) {
	specs := append(protocol.Names(), "alert:raised=0", "wakeup:wakers=8,stagger=3")
	families := []string{"uniform", "clusters", "corridor"}
	if testing.Short() {
		families = families[:1] // the race job runs -short
	}
	for _, family := range families {
		f, ok := scenario.Lookup(family)
		if !ok {
			t.Fatalf("unknown family %q", family)
		}
		net, err := scenario.Generate(f.SpecForN(32), sinr.DefaultParams(), 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{"exact", "grid", "hier"} {
			ch, err := protocol.NamedChannel(engine)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range specs {
				t.Run(s+"/"+family+"/"+engine, func(t *testing.T) {
					spec, err := protocol.Parse(s)
					if err != nil {
						t.Fatal(err)
					}
					run := func() any {
						res, err := protocol.RunOn(net, spec, 9, ch)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					memo := run()
					prev := sinr.SetSoloMemoForTest(false)
					fresh := run()
					sinr.SetSoloMemoForTest(prev)
					if !reflect.DeepEqual(memo, fresh) {
						t.Fatalf("%s on %s diverges with the solo memo:\nmemo  %+v\nfresh %+v", s, engine, memo, fresh)
					}
				})
			}
		}
	}
}
