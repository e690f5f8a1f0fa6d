package sim

import (
	"reflect"
	"slices"
	"testing"

	"sinrcast/internal/sinr"
)

// chainResolver is a deterministic fake physical layer: the lowest
// transmitter's message is heard by the next two higher-indexed
// non-transmitting stations (receptions in ascending receiver order).
// It implements only Resolver — no SubsetResolver — so these tests also
// cover the engine's wrapper-channel path.
type chainResolver struct{ n int }

func (c *chainResolver) N() int { return c.n }

func (c *chainResolver) Resolve(tx []int) []sinr.Reception {
	if len(tx) == 0 {
		return nil
	}
	src := tx[0]
	isTx := make(map[int]bool, len(tx))
	for _, i := range tx {
		isTx[i] = true
	}
	var rec []sinr.Reception
	for d := 1; d <= c.n && len(rec) < 2; d++ {
		r := src + d
		if r >= c.n {
			break
		}
		if !isTx[r] {
			rec = append(rec, sinr.Reception{Receiver: r, Transmitter: src})
		}
	}
	return rec
}

// scripted is a station whose transmissions are a pure function of
// the round and of the receptions seen so far, so skipped ticks
// provably change nothing: it transmits at rounds t < cutoff where
// (31·t+7·id)%mod == 0 and at every round in extras (appended by Recv).
// Its wake hint honors the Protocol contract exactly — it scans forward
// to the next planned round and returns NeverWake only when none
// remains (past cutoff with no pending extras), exercising reception
// re-wakes. With keep set, receptions are only recorded: they plan
// nothing, and Recv keeps the current hint.
type scripted struct {
	id, mod, cutoff int
	keep            bool
	extras          map[int]bool
	maxExtra        int
	got             []Message
	ticked          []int // rounds Tick ran
}

func newScripted(id, mod, cutoff int) *scripted {
	return &scripted{id: id, mod: mod, cutoff: cutoff, extras: map[int]bool{}}
}

func (s *scripted) planned(t int) bool {
	return (t < s.cutoff && (31*t+7*s.id)%s.mod == 0) || s.extras[t]
}

func (s *scripted) Tick(t int) (bool, Message, int) {
	s.ticked = append(s.ticked, t)
	transmit, msg := false, Message{}
	if s.planned(t) {
		transmit, msg = true, Message{Kind: 1, A: int64(s.id), B: int64(t)}
	}
	limit := max(s.cutoff, s.maxExtra)
	for u := t + 1; u <= limit; u++ {
		if s.planned(u) {
			return transmit, msg, u
		}
	}
	return transmit, msg, NeverWake
}

// Recv records the message. Unless the station keeps its plans, a
// reception schedules a reply two rounds out — a state change
// mid-sleep, which the engine's re-wake must surface — and asks for the
// next round.
func (s *scripted) Recv(t int, msg Message) int {
	s.got = append(s.got, msg)
	if s.keep {
		return NeverWake
	}
	s.extras[t+2] = true
	s.maxExtra = max(s.maxExtra, t+2)
	return t + 1
}

// script returns the scripted station behind p, which may be wrapped
// in the tick-everyone adapter (twice, for a mixed population's
// reference run).
func script(p Protocol) *scripted {
	for {
		a, ok := p.(everyRound)
		if !ok {
			return p.(*scripted)
		}
		p = a.Protocol
	}
}

// runScripted drives rounds rounds of a scripted population — every
// station wrapped in the tick-everyone adapter when ref is set — and
// returns the per-round transmitter counts, reception counts and every
// station's received messages.
func runScripted(t *testing.T, n, rounds int, ref bool, build func(i int) Protocol) ([]int, []int, [][]Message, Metrics) {
	t.Helper()
	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = build(i)
		if ref {
			protos[i] = everyRound{protos[i]}
		}
	}
	e, err := NewEngine(&chainResolver{n: n}, protos)
	if err != nil {
		t.Fatal(err)
	}
	ct := &CountingTracer{}
	e.SetTracer(ct)
	for r := 0; r < rounds; r++ {
		e.Step()
	}
	got := make([][]Message, n)
	for i, p := range protos {
		got[i] = script(p).got
	}
	return ct.TxPerRound, ct.RecPerRound, got, e.Metrics
}

// TestWakeSchedulingMatchesReference pins the engine's contract: the
// scheduled loop is byte-identical to ticking every station every
// round, for hinting and mixed populations (every third station asks
// for the next round, so the next-round lane and the calendar merge),
// including NeverWake stations that are re-woken by receptions and
// wake hints far enough out to grow the calendar ring.
func TestWakeSchedulingMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		build func(i int) Protocol
	}{
		{"all sleepers", func(i int) Protocol { return newScripted(i, 5+i%7, 400) }},
		{"mixed", func(i int) Protocol {
			if i%3 == 0 {
				return everyRound{newScripted(i, 5+i%7, 400)}
			}
			return newScripted(i, 5+i%7, 400)
		}},
		{"early cutoff, NeverWake + recv re-wakes", func(i int) Protocol { return newScripted(i, 3+i%4, 6) }},
		{"sparse plans grow the ring", func(i int) Protocol { return newScripted(i, 149+17*i, 400) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			txRef, recRef, gotRef, mRef := runScripted(t, 24, 400, true, tc.build)
			txSch, recSch, gotSch, mSch := runScripted(t, 24, 400, false, tc.build)
			if !reflect.DeepEqual(txRef, txSch) {
				t.Fatalf("per-round tx counts diverge:\nref %v\nsch %v", txRef, txSch)
			}
			if !reflect.DeepEqual(recRef, recSch) {
				t.Fatalf("per-round reception counts diverge")
			}
			if !reflect.DeepEqual(gotRef, gotSch) {
				t.Fatalf("delivered messages diverge")
			}
			if mRef != mSch {
				t.Fatalf("metrics diverge: ref %+v sch %+v", mRef, mSch)
			}
		})
	}
}

// neverTicked fails the test if the engine ticks it after its quit
// round — the direct check that sleeping stations are really skipped.
type neverTicked struct {
	t      *testing.T
	quitAt int
	ticked int
}

func (s *neverTicked) Tick(t int) (bool, Message, int) {
	s.ticked++
	if t > s.quitAt {
		s.t.Fatalf("station ticked at round %d after quitting at %d", t, s.quitAt)
	}
	if t >= s.quitAt {
		return false, Message{}, NeverWake
	}
	return false, Message{}, t + 1
}

func (s *neverTicked) Recv(t int, _ Message) int { return t + 1 }

// TestWakeSchedulingSkipsSleepers verifies ticks are actually skipped,
// not just order-preserved.
func TestWakeSchedulingSkipsSleepers(t *testing.T) {
	n := 8
	protos := make([]Protocol, n)
	stations := make([]*neverTicked, n)
	for i := range protos {
		st := &neverTicked{t: t, quitAt: 4}
		stations[i] = st
		protos[i] = st
	}
	e, err := NewEngine(&chainResolver{n: n}, protos)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 100; r++ {
		e.Step()
	}
	for i, st := range stations {
		if st.ticked != 5 {
			t.Fatalf("station %d ticked %d times, want 5 (rounds 0..4)", i, st.ticked)
		}
	}
}

// TestRecvWakeKeepsHint checks that a reception does not void a
// station's hint: stations whose Recv keeps it are ticked only on their
// planned rounds (and round 0) although they receive throughout, and
// the run is byte-identical to ticking every round.
func TestRecvWakeKeepsHint(t *testing.T) {
	const n, rounds = 24, 400
	build := func(i int) Protocol {
		s := newScripted(i, 5+i%7, 300)
		s.keep = true
		return s
	}
	txRef, recRef, gotRef, mRef := runScripted(t, n, rounds, true, build)

	protos := make([]Protocol, n)
	for i := range protos {
		protos[i] = build(i)
	}
	e, err := NewEngine(&chainResolver{n: n}, protos)
	if err != nil {
		t.Fatal(err)
	}
	ct := &CountingTracer{}
	e.SetTracer(ct)
	for r := 0; r < rounds; r++ {
		e.Step()
	}
	if !reflect.DeepEqual(ct.TxPerRound, txRef) || !reflect.DeepEqual(ct.RecPerRound, recRef) || e.Metrics != mRef {
		t.Fatal("scheduled run diverges from the tick-everyone reference")
	}
	received := 0
	for i, p := range protos {
		s := script(p)
		if !reflect.DeepEqual(s.got, gotRef[i]) {
			t.Fatalf("station %d deliveries diverge", i)
		}
		received += len(s.got)
		for _, r := range s.ticked {
			if r != 0 && !s.planned(r) {
				t.Fatalf("station %d re-ticked at unplanned round %d", i, r)
			}
		}
	}
	if received == 0 {
		t.Fatal("no receptions: the test exercises nothing")
	}
}

// farWaker transmits at the rounds in plan and hints the next of them,
// however far out.
type farWaker struct {
	plan   []int
	ticked int
}

func (f *farWaker) Tick(t int) (bool, Message, int) {
	f.ticked++
	transmit := slices.Contains(f.plan, t)
	for _, u := range f.plan {
		if u > t {
			return transmit, Message{Kind: 3, B: int64(t)}, u
		}
	}
	return transmit, Message{Kind: 3, B: int64(t)}, NeverWake
}

func (f *farWaker) Recv(int, Message) int { return NeverWake }

// TestFarWakeHintsClampToHorizon pins the calendar bound: hints tens
// of thousands of rounds out never grow the ring past calMaxLen; the
// stations tick early at the horizon, re-announce their hint, and the
// run stays byte-identical to the tick-everyone reference.
func TestFarWakeHintsClampToHorizon(t *testing.T) {
	const n, rounds = 6, 30000
	build := func(i int) *farWaker {
		return &farWaker{plan: []int{i, 5000 + 7*i, 9000 + i, 25000 + 11*i}}
	}
	run := func(ref bool) (*CountingTracer, *Engine, []*farWaker) {
		protos := make([]Protocol, n)
		stations := make([]*farWaker, n)
		for i := range protos {
			stations[i] = build(i)
			protos[i] = stations[i]
			if ref {
				protos[i] = everyRound{protos[i]}
			}
		}
		e, err := NewEngine(&chainResolver{n: n}, protos)
		if err != nil {
			t.Fatal(err)
		}
		ct := &CountingTracer{}
		e.SetTracer(ct)
		for r := 0; r < rounds; r++ {
			e.Step()
			if len(e.cal) > calMaxLen {
				t.Fatalf("round %d: calendar ring has %d buckets, cap %d", r, len(e.cal), calMaxLen)
			}
		}
		return ct, e, stations
	}
	ctRef, eRef, _ := run(true)
	ct, e, stations := run(false)
	if !reflect.DeepEqual(ct.TxPerRound, ctRef.TxPerRound) || !reflect.DeepEqual(ct.RecPerRound, ctRef.RecPerRound) || e.Metrics != eRef.Metrics {
		t.Fatal("clamped run diverges from the tick-everyone reference")
	}
	if e.Metrics.Transmissions != 4*n {
		t.Fatalf("Transmissions = %d, want %d", e.Metrics.Transmissions, 4*n)
	}
	for i, s := range stations {
		// Four planned rounds plus one early tick per horizon crossed.
		if s.ticked > 4+rounds/(calMaxLen-1)+1 {
			t.Fatalf("station %d ticked %d times: the clamp re-ticks too often", i, s.ticked)
		}
	}
}

// stepper is a station driven by per-round functions: tx (nil: never
// transmit), its hint, and its Recv answer (nil: keep the hint). It
// records the rounds it was ticked.
type stepper struct {
	tx     func(t int) bool
	hint   func(t int) int
	recv   func(t int) int
	ticked []int
}

func (s *stepper) Tick(t int) (bool, Message, int) {
	s.ticked = append(s.ticked, t)
	return s.tx != nil && s.tx(t), Message{}, s.hint(t)
}

func (s *stepper) Recv(t int, _ Message) int {
	if s.recv == nil {
		return NeverWake
	}
	return s.recv(t)
}

// TestNextLaneAndStaleBucketTickOnce: station 1 transmits in round 0
// and hints round 10 (a calendar entry), a reception in round 2 pulls
// it to round 3, and from there it asks for every next round — so in
// round 10 it rides the next-round lane, and the bucket it first filed
// must no longer hold it. It must tick exactly once per round.
func TestNextLaneAndStaleBucketTickOnce(t *testing.T) {
	st := &stepper{
		tx: func(t int) bool { return t == 0 },
		hint: func(t int) int {
			if t == 0 {
				return 10
			}
			return t + 1
		},
		recv: func(t int) int { return t + 1 },
	}
	src := &stepper{tx: func(t int) bool { return t <= 2 }, hint: func(t int) int {
		if t < 2 {
			return 2
		}
		return NeverWake
	}}
	e, err := NewEngine(&chainResolver{n: 2}, []Protocol{src, st})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 14; r++ {
		e.Step()
	}
	want := []int{0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	if !reflect.DeepEqual(st.ticked, want) {
		t.Fatalf("station ticked at %v, want %v", st.ticked, want)
	}
}

// TestCalendarGrowsDuringDeliver grows the ring from inside deliver
// while the next-round lane is populated: every-round stations keep
// their lane, the far wake lands on its round, and the run matches the
// tick-everyone reference.
func TestCalendarGrowsDuringDeliver(t *testing.T) {
	const n = 8
	build := func(i int) *stepper {
		if i == 1 {
			// Silent and asleep until a reception, which asks for a
			// round past the initial ring.
			return &stepper{
				hint: func(int) int { return NeverWake },
				recv: func(t int) int { return t + 3*calInitLen },
			}
		}
		return &stepper{
			tx:   func(t int) bool { return t%2 == 0 },
			hint: func(t int) int { return t + 1 },
		}
	}
	run := func(ref bool) ([]*stepper, *CountingTracer, *Engine) {
		protos := make([]Protocol, n)
		stations := make([]*stepper, n)
		for i := range protos {
			stations[i] = build(i)
			protos[i] = stations[i]
			if ref {
				protos[i] = everyRound{protos[i]}
			}
		}
		e, err := NewEngine(&chainResolver{n: n}, protos)
		if err != nil {
			t.Fatal(err)
		}
		ct := &CountingTracer{}
		e.SetTracer(ct)
		for r := 0; r < 4*calInitLen; r++ {
			e.Step()
		}
		return stations, ct, e
	}
	_, ctRef, eRef := run(true)
	stations, ct, e := run(false)
	if len(e.cal) <= calInitLen {
		t.Fatalf("ring never grew (%d buckets)", len(e.cal))
	}
	if !reflect.DeepEqual(ct.TxPerRound, ctRef.TxPerRound) || !reflect.DeepEqual(ct.RecPerRound, ctRef.RecPerRound) || e.Metrics != eRef.Metrics {
		t.Fatal("run diverges from the tick-everyone reference")
	}
	for i, s := range stations {
		if i == 1 {
			continue
		}
		if len(s.ticked) != 4*calInitLen {
			t.Fatalf("every-round station %d ticked %d times, want %d", i, len(s.ticked), 4*calInitLen)
		}
	}
	// Station 1 hears station 0 in every even round. Its first
	// reception, in round 0, asks for round 3·calInitLen; the later
	// ones ask for later rounds and keep that hint.
	if got := stations[1].ticked; !reflect.DeepEqual(got, []int{0, 3 * calInitLen}) {
		t.Fatalf("station 1 ticked at %v, want [0 %d]", got, 3*calInitLen)
	}
}

// countingStop pins the Run satellite fix: a side-effecting stop
// closure must be evaluated exactly once per round, not an extra time
// after the budget is exhausted.
func TestRunEvaluatesStopOncePerRound(t *testing.T) {
	protos := []Protocol{newScripted(0, 3, 100), newScripted(1, 4, 100)}
	e, err := NewEngine(&chainResolver{n: 2}, protos)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rounds, stopped := e.Run(7, func() bool {
		calls++
		return false
	})
	if rounds != 7 || stopped {
		t.Fatalf("Run = (%d, %v), want (7, false)", rounds, stopped)
	}
	if calls != 7 {
		t.Fatalf("stop evaluated %d times, want exactly 7 (once per round)", calls)
	}

	// A countdown closure must stop the run without being re-polled.
	calls = 0
	rounds, stopped = e.Run(10, func() bool {
		calls++
		return calls > 3
	})
	if rounds != 3 || !stopped {
		t.Fatalf("Run = (%d, %v), want (3, true)", rounds, stopped)
	}
	if calls != 4 {
		t.Fatalf("stop evaluated %d times, want 4", calls)
	}
}
