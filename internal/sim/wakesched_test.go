package sim

import (
	"reflect"
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

// scripted is a Sleeper whose transmissions are a pure function of the
// round and of the receptions seen so far, so skipped ticks provably
// change nothing: it transmits at rounds t < cutoff where
// (31·t+7·id)%mod == 0 and at every round in extras (appended by Recv).
// nextWake honors the Sleeper contract exactly — it scans forward to
// the next planned round and returns NeverWake only when none remains
// (past cutoff with no pending extras), exercising reception re-wakes.
// With keep set, receptions are only recorded: they plan nothing, and
// RecvWake keeps the current hint.
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

func (s *scripted) Tick(t int) (bool, Message) {
	s.ticked = append(s.ticked, t)
	if s.planned(t) {
		return true, Message{Kind: 1, A: int64(s.id), B: int64(t)}
	}
	return false, Message{}
}

func (s *scripted) TickWake(t int) (bool, Message, int) {
	transmit, msg := s.Tick(t)
	limit := s.cutoff
	if s.maxExtra > limit {
		limit = s.maxExtra
	}
	for u := t + 1; u <= limit; u++ {
		if s.planned(u) {
			return transmit, msg, u
		}
	}
	return transmit, msg, NeverWake
}

func (s *scripted) Recv(t int, msg Message) {
	s.got = append(s.got, msg)
	if s.keep {
		return
	}
	// A reception schedules a reply two rounds out: state change
	// mid-sleep, which the engine's re-wake must surface.
	s.extras[t+2] = true
	if t+2 > s.maxExtra {
		s.maxExtra = t + 2
	}
}

// RecvWake asks for the next round, as the engine once did for every
// reception, unless the station keeps its plans.
func (s *scripted) RecvWake(t int, msg Message) int {
	s.Recv(t, msg)
	if s.keep {
		return NeverWake
	}
	return t + 1
}

// plain is scripted without the Sleeper capability (mixed populations).
// It holds the script in a named field: embedding would promote
// TickWake and RecvWake and make it a Sleeper after all.
type plain struct{ scripted *scripted }

func (p plain) Tick(t int) (bool, Message) { return p.scripted.Tick(t) }
func (p plain) Recv(t int, msg Message)    { p.scripted.Recv(t, msg) }

// runScripted drives rounds rounds of a scripted population and returns
// the per-round transmitter counts, reception counts and every
// station's received messages.
func runScripted(t *testing.T, n, rounds int, wakeSched bool, build func(i int) Protocol) ([]int, []int, [][]Message, Metrics) {
	t.Helper()
	protos := make([]Protocol, n)
	scripts := make([]*scripted, n)
	for i := range protos {
		protos[i] = build(i)
		switch p := protos[i].(type) {
		case *scripted:
			scripts[i] = p
		case plain:
			scripts[i] = p.scripted
		}
	}
	e, err := NewEngine(&chainResolver{n: n}, protos)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWakeScheduling(wakeSched)
	ct := &CountingTracer{}
	e.SetTracer(ct)
	for r := 0; r < rounds; r++ {
		e.Step()
	}
	got := make([][]Message, n)
	for i, s := range scripts {
		got[i] = s.got
	}
	return ct.TxPerRound, ct.RecPerRound, got, e.Metrics
}

// TestWakeSchedulingMatchesReference pins the tentpole contract: the
// calendar-queue loop is byte-identical to ticking every station, for
// sleeper-only and mixed populations, including NeverWake stations that
// are re-woken by receptions and wake hints far enough out to grow the
// calendar ring.
func TestWakeSchedulingMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		build func(i int) Protocol
	}{
		{"all sleepers", func(i int) Protocol { return newScripted(i, 5+i%7, 400) }},
		{"mixed", func(i int) Protocol {
			if i%3 == 0 {
				return plain{newScripted(i, 5+i%7, 400)}
			}
			return newScripted(i, 5+i%7, 400)
		}},
		{"early cutoff, NeverWake + recv re-wakes", func(i int) Protocol { return newScripted(i, 3+i%4, 6) }},
		{"sparse plans grow the ring", func(i int) Protocol { return newScripted(i, 149+17*i, 400) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			txRef, recRef, gotRef, mRef := runScripted(t, 24, 400, false, tc.build)
			txSch, recSch, gotSch, mSch := runScripted(t, 24, 400, true, tc.build)
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

// TestWakeSchedulingToggleMidRun flips the scheduler on and off during a
// run; every segment must continue the same execution.
func TestWakeSchedulingToggleMidRun(t *testing.T) {
	build := func(i int) Protocol { return newScripted(i, 5+i%7, 300) }
	txRef, _, gotRef, _ := runScripted(t, 16, 300, false, build)

	protos := make([]Protocol, 16)
	scripts := make([]*scripted, 16)
	for i := range protos {
		s := newScripted(i, 5+i%7, 300)
		protos[i] = s
		scripts[i] = s
	}
	e, err := NewEngine(&chainResolver{n: 16}, protos)
	if err != nil {
		t.Fatal(err)
	}
	ct := &CountingTracer{}
	e.SetTracer(ct)
	for r := 0; r < 300; r++ {
		// Toggle at awkward, non-aligned points.
		e.SetWakeScheduling(r%17 < 9)
		e.Step()
	}
	if !reflect.DeepEqual(ct.TxPerRound, txRef) {
		t.Fatalf("toggled run diverges from reference")
	}
	for i, s := range scripts {
		if !reflect.DeepEqual(s.got, gotRef[i]) {
			t.Fatalf("station %d deliveries diverge under toggling", i)
		}
	}
}

// neverTicked fails the test if the engine ticks it after its quit
// round — the direct check that sleeping stations are really skipped.
type neverTicked struct {
	t      *testing.T
	quitAt int
	ticked int
}

func (s *neverTicked) Tick(t int) (bool, Message) {
	s.ticked++
	if t > s.quitAt {
		s.t.Fatalf("station ticked at round %d after quitting at %d", t, s.quitAt)
	}
	return false, Message{}
}

func (s *neverTicked) TickWake(t int) (bool, Message, int) {
	transmit, msg := s.Tick(t)
	if t >= s.quitAt {
		return transmit, msg, NeverWake
	}
	return transmit, msg, t + 1
}

func (s *neverTicked) Recv(int, Message) {}

func (s *neverTicked) RecvWake(t int, _ Message) int { return t + 1 }

// TestWakeSchedulingSkipsSleepers verifies ticks are actually skipped
// (the perf point of the tentpole), not just order-preserved.
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
	e.SetWakeScheduling(true)
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
// sleeper's hint: stations whose RecvWake keeps it are ticked only on
// their planned rounds (and the seeding round 0) although they receive
// throughout, and the run is byte-identical to ticking every round.
func TestRecvWakeKeepsHint(t *testing.T) {
	const n, rounds = 24, 400
	build := func(i int) Protocol {
		s := newScripted(i, 5+i%7, 300)
		s.keep = true
		return s
	}
	txRef, recRef, gotRef, mRef := runScripted(t, n, rounds, false, build)

	protos := make([]Protocol, n)
	scripts := make([]*scripted, n)
	for i := range protos {
		protos[i] = build(i)
		scripts[i] = protos[i].(*scripted)
	}
	e, err := NewEngine(&chainResolver{n: n}, protos)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWakeScheduling(true)
	ct := &CountingTracer{}
	e.SetTracer(ct)
	for r := 0; r < rounds; r++ {
		e.Step()
	}
	if !reflect.DeepEqual(ct.TxPerRound, txRef) || !reflect.DeepEqual(ct.RecPerRound, recRef) || e.Metrics != mRef {
		t.Fatal("scheduled run diverges from the tick-everyone reference")
	}
	received := 0
	for i, s := range scripts {
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
