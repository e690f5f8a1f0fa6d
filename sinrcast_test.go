package sinrcast

import (
	"math"
	"reflect"
	"testing"
)

func TestFacadeBroadcastRoundTrip(t *testing.T) {
	net, err := GenerateUniform(DefaultPhysical(), 48, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Broadcast(net, Options{Seed: 7, Payload: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("broadcast incomplete after %d rounds", res.Rounds)
	}
	s, err := BroadcastSpontaneous(net, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !s.AllInformed {
		t.Fatal("spontaneous broadcast incomplete")
	}
}

func TestFacadeNewNetwork(t *testing.T) {
	net, err := NewNetwork(DefaultPhysical(), []Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 2 || !net.Connected() {
		t.Fatal("explicit network wrong")
	}
	line, err := NewLineNetwork(DefaultPhysical(), []float64{0, 0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if line.N() != 3 || !line.Connected() {
		t.Fatal("line network wrong")
	}
}

func TestFacadeColoringAndInvariants(t *testing.T) {
	net, err := GenerateUniform(DefaultPhysical(), 64, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	col, err := Colorize(net, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Colors) != net.N() {
		t.Fatal("coloring size mismatch")
	}
	if m := CheckLemma1(net, col.Colors); m <= 0 || m > 1.5 {
		t.Fatalf("Lemma1 mass = %v", m)
	}
	if m := CheckLemma2(net, col.Colors); m <= 0 {
		t.Fatalf("Lemma2 mass = %v", m)
	}
}

func TestFacadeGenerators(t *testing.T) {
	if _, err := GeneratePath(DefaultPhysical(), 10, 0.9, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateClusters(DefaultPhysical(), 2, 5, 0.1, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	chain, err := GenerateExponentialChain(DefaultPhysical(), 16, 0.5, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Granularity() < 100 {
		t.Fatalf("chain granularity = %v", chain.Granularity())
	}
}

func TestFacadeApps(t *testing.T) {
	net, err := GenerateUniform(DefaultPhysical(), 32, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Wake-up.
	wake := make([]int, net.N())
	for i := range wake {
		wake[i] = -1
	}
	wake[0] = 0
	wres, err := WakeUp(net, 3, WakeupSchedule{WakeAt: wake})
	if err != nil {
		t.Fatal(err)
	}
	if !wres.AllAwake {
		t.Fatal("wakeup incomplete")
	}
	// Consensus.
	msgs := make([]int64, net.N())
	for i := range msgs {
		msgs[i] = int64(3 + i%5)
	}
	cres, err := Consensus(net, 5, 7, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Correct {
		t.Fatalf("consensus wrong: agreed=%v v=%d", cres.Agreed, cres.Values[0])
	}
	// Leader.
	lres, err := ElectLeader(net, 7)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Leader < 0 {
		t.Fatal("no leader")
	}
}

func TestFacadeAlert(t *testing.T) {
	net, err := GenerateUniform(DefaultPhysical(), 32, 8, 19)
	if err != nil {
		t.Fatal(err)
	}
	raised := make([]bool, net.N())
	raised[3] = true
	res, err := Alert(net, 5, raised)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("alert not delivered")
	}
	// Negative case: silent and false everywhere.
	neg, err := Alert(net, 5, make([]bool, net.N()))
	if err != nil {
		t.Fatal(err)
	}
	if !neg.Correct || neg.FloodTransmissions != 0 {
		t.Fatalf("negative alert: correct=%v floodTx=%d", neg.Correct, neg.FloodTransmissions)
	}
}

func TestFacadeProgress(t *testing.T) {
	net, err := GeneratePath(DefaultPhysical(), 16, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Broadcast(net, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hp, err := Progress(net, 0, res.InformTime)
	if err != nil {
		t.Fatal(err)
	}
	if hp.PerHop <= 0 {
		t.Fatalf("per-hop slope = %v", hp.PerHop)
	}
}

func TestFacadeClusteredPath(t *testing.T) {
	net, err := GenerateClusteredPath(DefaultPhysical(), 8, 12, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 20 || !net.Connected() {
		t.Fatal("clustered path wrong")
	}
}

func TestFacadeBaselines(t *testing.T) {
	net, err := GenerateUniform(DefaultPhysical(), 48, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(*Network, Options) (*BroadcastResult, error){
		"decay":  FloodDecay,
		"daum":   FloodDaumStyle,
		"oracle": FloodDensityOracle,
		"tdma":   FloodGridTDMA,
	} {
		res, err := run(net, Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.AllInformed {
			t.Fatalf("%s incomplete after %d rounds", name, res.Rounds)
		}
	}
}

func TestFacadeScenarios(t *testing.T) {
	fams := ScenarioFamilies()
	if len(fams) < 11 {
		t.Fatalf("ScenarioFamilies = %d, want >= 11", len(fams))
	}
	spec, err := ParseSpec("uniform:n=48,density=8")
	if err != nil {
		t.Fatal(err)
	}
	net, err := Generate(spec, DefaultPhysical(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if net.Meta["attempts"] < 1 {
		t.Fatalf("generator meta missing: %v", net.Meta)
	}
	if _, err := ParseSpec("uniform:bogus=1"); err == nil {
		t.Fatal("want error for unknown parameter")
	}
	if ScenarioCatalogue() == "" {
		t.Fatal("empty scenario catalogue")
	}
}

// TestFacadeGeneratorsMatchSpecs pins every Generate* wrapper to the
// scenario spec it stands for: same station count, positions equal bit
// for bit, same generator meta.
func TestFacadeGeneratorsMatchSpecs(t *testing.T) {
	p := DefaultPhysical()
	for _, tc := range []struct {
		spec   string
		seed   uint64
		legacy func() (*Network, error)
	}{
		{"uniform:n=48,density=8", 1, func() (*Network, error) { return GenerateUniform(p, 48, 8, 1) }},
		{"uniform:n=48,density=6", 1, func() (*Network, error) { return GenerateUniform(p, 48, 0, 1) }},
		{"uniform:n=48,density=6", 2, func() (*Network, error) { return GenerateUniform(p, 48, -1, 2) }},
		{"path:n=20,frac=0.9", 1, func() (*Network, error) { return GeneratePath(p, 20, 0.9, 1) }},
		{"clusters:k=3,m=10,radius=0.08,gap=0.6", 2, func() (*Network, error) { return GenerateClusters(p, 3, 10, 0.08, 0.6, 2) }},
		{"expchain:n=24,first=0.5,ratio=0.55", 3, func() (*Network, error) { return GenerateExponentialChain(p, 24, 0.5, 0.55, 3) }},
		{"clusteredpath:pathlen=10,cluster=16,ratio=0.6", 0, func() (*Network, error) { return GenerateClusteredPath(p, 10, 16, 0.6) }},
	} {
		spec, err := ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Generate(spec, p, tc.seed)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		got, err := tc.legacy()
		if err != nil {
			t.Fatalf("%s wrapper: %v", tc.spec, err)
		}
		if got.N() != want.N() {
			t.Fatalf("%s: wrapper built n=%d, spec n=%d", tc.spec, got.N(), want.N())
		}
		for i := 0; i < want.N(); i++ {
			a, b := got.Space.Position(i), want.Space.Position(i)
			if math.Float64bits(a.X) != math.Float64bits(b.X) || math.Float64bits(a.Y) != math.Float64bits(b.Y) {
				t.Fatalf("%s station %d: wrapper %v, spec %v", tc.spec, i, a, b)
			}
		}
		if !reflect.DeepEqual(got.Meta, want.Meta) {
			t.Fatalf("%s: wrapper meta %v, spec meta %v", tc.spec, got.Meta, want.Meta)
		}
	}
}

func TestFacadeProtocols(t *testing.T) {
	names := ProtocolNames()
	if len(names) < 11 {
		t.Fatalf("ProtocolNames = %d, want >= 11", len(names))
	}
	net, err := GenerateUniform(DefaultPhysical(), 32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseProtocol("nos:source=3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProtocol(net, spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("nos incomplete after %d rounds", res.Rounds)
	}
	// The registry path and the facade helper must agree exactly.
	direct, err := Broadcast(net, Options{Seed: 7, Source: 3, Payload: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != direct.Rounds || res.Metrics != direct.Metrics {
		t.Fatalf("registry run diverged from Broadcast: %d/%v vs %d/%v",
			res.Rounds, res.Metrics, direct.Rounds, direct.Metrics)
	}
	if _, err := ParseProtocol("nos:bogus=1"); err == nil {
		t.Fatal("want error for unknown parameter")
	}
	if ProtocolCatalogue() == "" {
		t.Fatal("empty protocol catalogue")
	}
}
