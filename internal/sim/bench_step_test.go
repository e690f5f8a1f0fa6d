package sim

import (
	"testing"

	"sinrcast/internal/sinr"
)

// nullSubsetResolver is a physical layer that never delivers and never
// allocates, so the steady-state Step benchmark isolates the sim-layer
// cost: calendar pops, lane merging, scheduling.
type nullSubsetResolver struct{ n int }

func (r nullSubsetResolver) N() int                                     { return r.n }
func (r nullSubsetResolver) Resolve(tx []int) []sinr.Reception          { return nil }
func (r nullSubsetResolver) ResolveFor(tx, recv []int) []sinr.Reception { return nil }

// periodicSleeper transmits once per period on its own offset and
// sleeps the rest — the densest calendar traffic shape (every wake is
// rescheduled every period).
type periodicSleeper struct{ id, period int }

func (p *periodicSleeper) Tick(t int) (bool, Message, int) {
	off := p.id % p.period
	d := (off - (t+1)%p.period + p.period) % p.period
	if t%p.period == off {
		return true, Message{Kind: 1, A: int64(p.id)}, t + 1 + d
	}
	return false, Message{}, t + 1 + d
}

func (p *periodicSleeper) Recv(t int, _ Message) int { return t + 1 }

// busyStation asks for every round, so it rides the next-round lane.
type busyStation struct{}

func (busyStation) Tick(t int) (bool, Message, int) { return false, Message{}, t + 1 }
func (busyStation) Recv(t int, _ Message) int       { return t + 1 }

// BenchmarkStepWakeScheduled measures the steady-state cost of one
// round: n sleepers waking every period rounds, so each Step pops,
// orders and reschedules n/period calendar entries, merged with an
// every-round population of n/64 stations on the next-round lane.
// After the warm-up has grown the calendar ring and the lane
// capacities, Step must run allocation-free — CI gates on the
// reported 0 allocs/op.
func BenchmarkStepWakeScheduled(b *testing.B) {
	const n, period, everyRoundShare = 65536, 512, 64
	protos := make([]Protocol, n)
	for i := 0; i < n; i++ {
		protos[i] = &periodicSleeper{id: i, period: period}
		if i%everyRoundShare == 0 {
			protos[i] = busyStation{}
		}
	}
	e, err := NewEngine(nullSubsetResolver{n}, protos)
	if err != nil {
		b.Fatal(err)
	}
	e.Run(2*period, nil) // reach steady state: ring grown, lanes at capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
