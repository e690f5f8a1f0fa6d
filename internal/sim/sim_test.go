package sim

import (
	"math"
	"testing"

	"sinrcast/internal/geom"
	"sinrcast/internal/sinr"
)

// beaconProto transmits every round with a fixed payload; used to drive
// the engine deterministically.
type beaconProto struct {
	every   int // transmit when t % every == 0 (0 = never)
	payload int64
	got     []Message
}

func (b *beaconProto) Tick(t int) (bool, Message, int) {
	if b.every > 0 && t%b.every == 0 {
		return true, Message{Kind: 1, A: b.payload}, t + 1
	}
	return false, Message{}, t + 1
}

func (b *beaconProto) Recv(t int, m Message) int {
	b.got = append(b.got, m)
	return t + 1
}

func twoStationEngine(t *testing.T, protos []Protocol) *Engine {
	t.Helper()
	phys, err := sinr.NewEngine(geom.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(phys, protos)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineMismatchedProtocols(t *testing.T) {
	phys, err := sinr.NewEngine(geom.NewEuclidean([]geom.Point{{X: 0, Y: 0}}), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(phys, nil); err == nil {
		t.Fatal("want error for protocol count mismatch")
	}
}

func TestDeliveryAndMetadata(t *testing.T) {
	a := &beaconProto{every: 1, payload: 42}
	b := &beaconProto{}
	e := twoStationEngine(t, []Protocol{a, b})
	if got := e.Step(); got != 1 {
		t.Fatalf("Step receptions = %d, want 1", got)
	}
	if len(b.got) != 1 {
		t.Fatalf("station 1 received %d messages", len(b.got))
	}
	m := b.got[0]
	if m.Src != 0 || m.Round != 0 || m.Kind != 1 || m.A != 42 {
		t.Fatalf("message metadata wrong: %+v", m)
	}
	if len(a.got) != 0 {
		t.Fatal("transmitter must not receive")
	}
}

func TestRoundCounterAdvances(t *testing.T) {
	a := &beaconProto{every: 2, payload: 7}
	b := &beaconProto{}
	e := twoStationEngine(t, []Protocol{a, b})
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if e.Round() != 5 {
		t.Fatalf("Round = %d, want 5", e.Round())
	}
	// Transmissions in rounds 0, 2, 4.
	if len(b.got) != 3 {
		t.Fatalf("got %d deliveries, want 3", len(b.got))
	}
	if b.got[1].Round != 2 {
		t.Fatalf("second delivery round = %d, want 2", b.got[1].Round)
	}
}

func TestMetrics(t *testing.T) {
	a := &beaconProto{every: 2, payload: 1}
	b := &beaconProto{}
	e := twoStationEngine(t, []Protocol{a, b})
	e.Run(6, nil)
	m := e.Metrics
	if m.Rounds != 6 {
		t.Fatalf("Rounds = %d", m.Rounds)
	}
	if m.Transmissions != 3 {
		t.Fatalf("Transmissions = %d", m.Transmissions)
	}
	if m.Receptions != 3 {
		t.Fatalf("Receptions = %d", m.Receptions)
	}
	if m.BusyRounds != 3 {
		t.Fatalf("BusyRounds = %d", m.BusyRounds)
	}
}

func TestRunStopCondition(t *testing.T) {
	a := &beaconProto{every: 1, payload: 1}
	b := &beaconProto{}
	e := twoStationEngine(t, []Protocol{a, b})
	rounds, stopped := e.Run(100, func() bool { return len(b.got) >= 3 })
	if !stopped {
		t.Fatal("stop did not fire")
	}
	if rounds != 3 {
		t.Fatalf("rounds = %d, want 3", rounds)
	}
	// Run with nil stop runs exactly maxRounds.
	rounds, stopped = e.Run(4, nil)
	if rounds != 4 || stopped {
		t.Fatalf("nil-stop run = (%d,%v)", rounds, stopped)
	}
}

func TestRunResumesGlobalClock(t *testing.T) {
	a := &beaconProto{every: 1, payload: 1}
	b := &beaconProto{}
	e := twoStationEngine(t, []Protocol{a, b})
	e.Run(3, nil)
	e.Run(2, nil)
	if e.Round() != 5 {
		t.Fatalf("global clock = %d, want 5", e.Round())
	}
	if b.got[4].Round != 4 {
		t.Fatalf("delivery round = %d, want 4", b.got[4].Round)
	}
}

func TestCountingTracer(t *testing.T) {
	a := &beaconProto{every: 2, payload: 1}
	b := &beaconProto{}
	e := twoStationEngine(t, []Protocol{a, b})
	var ct CountingTracer
	e.SetTracer(&ct)
	e.Run(4, nil)
	wantTx := []int{1, 0, 1, 0}
	for i, w := range wantTx {
		if ct.TxPerRound[i] != w {
			t.Fatalf("TxPerRound = %v, want %v", ct.TxPerRound, wantTx)
		}
	}
	if ct.RecPerRound[0] != 1 || ct.RecPerRound[1] != 0 {
		t.Fatalf("RecPerRound = %v", ct.RecPerRound)
	}
}

// fullOnlyResolver wraps an engine hiding its ResolveFor, to exercise
// the fallback path of the receiver-activity hook.
type fullOnlyResolver struct{ inner *sinr.Engine }

func (f fullOnlyResolver) Resolve(tx []int) []sinr.Reception { return f.inner.Resolve(tx) }
func (f fullOnlyResolver) N() int                            { return f.inner.N() }

func TestSetReceiverActiveSkipsInactive(t *testing.T) {
	// Station 0 beacons every round; stations 1 and 2 listen in range.
	mk := func() ([]*beaconProto, *Engine) {
		phys, err := sinr.NewEngine(geom.NewEuclidean([]geom.Point{
			{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: -0.5, Y: 0},
		}), sinr.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		protos := []*beaconProto{{every: 1, payload: 9}, {}, {}}
		e, err := NewEngine(phys, []Protocol{protos[0], protos[1], protos[2]})
		if err != nil {
			t.Fatal(err)
		}
		return protos, e
	}

	protos, e := mk()
	e.SetReceiverActive(2, false)
	e.Run(3, nil)
	if len(protos[1].got) != 3 {
		t.Fatalf("active station received %d messages, want 3", len(protos[1].got))
	}
	if len(protos[2].got) != 0 {
		t.Fatalf("inactive station received %d messages, want 0", len(protos[2].got))
	}
	if e.Metrics.Receptions != 3 {
		t.Fatalf("Receptions = %d, want 3 (active only)", e.Metrics.Receptions)
	}

	// Reactivation restores delivery; deliveries to the active station
	// are identical throughout (the ResolveFor contract).
	e.SetReceiverActive(2, true)
	e.Run(2, nil)
	if len(protos[2].got) != 2 {
		t.Fatalf("reactivated station received %d messages, want 2", len(protos[2].got))
	}

	// Idempotent flips must not corrupt the inactive count.
	e.SetReceiverActive(2, false)
	e.SetReceiverActive(2, false)
	e.SetReceiverActive(2, true)
	e.Run(1, nil)
	if len(protos[2].got) != 3 {
		t.Fatalf("after idempotent flips station 2 got %d, want 3", len(protos[2].got))
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("want panic for out-of-range station")
			}
		}()
		e.SetReceiverActive(99, false)
	}()
}

func TestSetReceiverActiveFallbackWithoutSubsetResolver(t *testing.T) {
	// A resolver without ResolveFor resolves in full; the flag is
	// recorded but receptions still reach "inactive" stations — which is
	// why callers may only deactivate stations whose Recv is a no-op.
	inner, err := sinr.NewEngine(geom.NewEuclidean([]geom.Point{
		{X: 0, Y: 0}, {X: 0.5, Y: 0},
	}), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := &beaconProto{every: 1, payload: 1}
	b := &beaconProto{}
	e, err := NewEngine(fullOnlyResolver{inner}, []Protocol{a, b})
	if err != nil {
		t.Fatal(err)
	}
	e.SetReceiverActive(1, false)
	e.Run(2, nil)
	if len(b.got) != 2 {
		t.Fatalf("fallback delivered %d messages, want 2 (full resolution)", len(b.got))
	}
}

func TestCollisionNoDelivery(t *testing.T) {
	// Both stations transmit every round: no one ever listens, so no
	// receptions and metrics reflect pure contention.
	a := &beaconProto{every: 1, payload: 1}
	b := &beaconProto{every: 1, payload: 2}
	e := twoStationEngine(t, []Protocol{a, b})
	e.Run(5, nil)
	if e.Metrics.Receptions != 0 {
		t.Fatalf("Receptions = %d, want 0", e.Metrics.Receptions)
	}
	if e.Metrics.Transmissions != 10 {
		t.Fatalf("Transmissions = %d, want 10", e.Metrics.Transmissions)
	}
}

// floodProto is a deterministic flood-like protocol for the hier
// equivalence test: informed stations transmit on a fixed schedule,
// stations become informed on first reception, and the runner
// deactivates informed receivers — so the round loop alternates full
// Resolve and shrinking ResolveFor calls, exactly the shape the hier
// engine sees in production.
type floodProto struct {
	id       int
	informed bool
	at       int
	eng      *Engine
}

func (f *floodProto) Tick(t int) (bool, Message, int) {
	if f.informed && (t+f.id)%5 == 0 {
		return true, Message{Kind: 2, A: int64(f.id)}, t + 1
	}
	return false, Message{}, t + 1
}

func (f *floodProto) Recv(t int, _ Message) int {
	if !f.informed {
		f.informed = true
		f.at = t
		f.eng.SetReceiverActive(f.id, false)
	}
	return t + 1
}

// freshHier resolves every round on a newly built hier engine, so no
// aggregation state, cached slab or pyramid carries from one round to
// the next: the reference for an engine that keeps them.
type freshHier struct {
	t  *testing.T
	eu *geom.Euclidean
}

func (f freshHier) engine() *sinr.HierEngine {
	h, err := sinr.NewHierEngine(f.eu, sinr.DefaultParams(), sinr.DefaultCellSize, sinr.DefaultNearRadius, sinr.DefaultTheta)
	if err != nil {
		f.t.Fatal(err)
	}
	h.SetWorkers(1)
	return h
}

func (f freshHier) N() int                                  { return f.eu.Len() }
func (f freshHier) Resolve(tx []int) []sinr.Reception       { return f.engine().Resolve(tx) }
func (f freshHier) ResolveFor(tx, r []int) []sinr.Reception { return f.engine().ResolveFor(tx, r) }

// TestHierDeltaThroughSimEngine runs the full simulation round loop —
// including receiver deactivation, so rounds alternate Resolve and
// ResolveFor on monotonically shrinking subsets — over one long-lived
// hier engine, which carries its epoch caches and repeated-round state
// across rounds and builds its pyramid only on demand, and over a
// fresh engine per round, with the physical layer of both wrapped in
// RecordRounds. Inform times, metrics and the recorded round traces
// must match exactly.
func TestHierDeltaThroughSimEngine(t *testing.T) {
	const n = 400
	pts := make([]geom.Point, n)
	// Deterministic spiral blob: dense center, sparse rim — several
	// hops of flood progress within a handful of rounds.
	for i := range pts {
		r := 0.07 * float64(i%200)
		a := 0.7 * float64(i)
		pts[i] = geom.Point{X: r * math.Cos(a), Y: r * math.Sin(a)}
	}
	eu := geom.NewEuclidean(pts)
	run := func(phys Resolver) ([]int, Metrics, *RoundLog) {
		log := &RoundLog{}
		protos := make([]Protocol, n)
		flood := make([]*floodProto, n)
		for i := range protos {
			flood[i] = &floodProto{id: i, at: -1}
			protos[i] = flood[i]
		}
		e, err := NewEngine(RecordRounds(phys, log), protos)
		if err != nil {
			t.Fatal(err)
		}
		for i := range flood {
			flood[i].eng = e
		}
		flood[0].informed = true
		flood[0].at = 0
		e.SetReceiverActive(0, false)
		e.Run(60, nil)
		at := make([]int, n)
		for i := range flood {
			at[i] = flood[i].at
		}
		return at, e.Metrics, log
	}
	atD, mD, logD := run(freshHier{t, eu}.engine())
	atR, mR, logR := run(freshHier{t, eu})
	if mD != mR {
		t.Fatalf("metrics diverge: long-lived %+v vs fresh per round %+v", mD, mR)
	}
	informed := 0
	for i := range atD {
		if atD[i] != atR[i] {
			t.Fatalf("station %d informed at %d (long-lived) vs %d (fresh per round)", i, atD[i], atR[i])
		}
		if atD[i] >= 0 {
			informed++
		}
	}
	if informed < n/4 {
		t.Fatalf("only %d/%d stations informed; flood too inert to exercise the engine", informed, n)
	}
	if len(logD.Tx) != 60 || len(logR.Tx) != 60 {
		t.Fatalf("recorded %d/%d rounds, want 60", len(logD.Tx), len(logR.Tx))
	}
	sawSubset := false
	for r := range logD.Tx {
		if !equalInts(logD.Tx[r], logR.Tx[r]) || !equalInts(logD.Recv[r], logR.Recv[r]) {
			t.Fatalf("round %d traces diverge", r)
		}
		if logD.Recv[r] != nil {
			sawSubset = true
		}
	}
	if !sawSubset {
		t.Fatal("no subset-resolved rounds recorded; deactivation plumbing broken")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRoundLogKeepsEmptySubset pins the nil-vs-empty distinction: a
// round resolved for zero receivers (every station deactivated) must
// not be recorded as a full resolution — replaying the trace would
// otherwise resolve all n receivers for a round that cost nothing.
func TestRoundLogKeepsEmptySubset(t *testing.T) {
	phys, err := sinr.NewEngine(geom.NewEuclidean([]geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	log := &RoundLog{}
	rec := RecordRounds(phys, log).(SubsetResolver)
	rec.ResolveFor([]int{0}, []int{})
	rec.Resolve([]int{0})
	if log.Recv[0] == nil {
		t.Fatal("empty subset recorded as nil (= full resolution)")
	}
	if len(log.Recv[0]) != 0 {
		t.Fatalf("empty subset recorded as %v", log.Recv[0])
	}
	if log.Recv[1] != nil {
		t.Fatalf("full round recorded as subset %v", log.Recv[1])
	}
}
