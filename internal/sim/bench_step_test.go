package sim

import (
	"testing"

	"sinrcast/internal/sinr"
)

// nullSubsetResolver is a physical layer that never delivers and never
// allocates, so the steady-state Step benchmark isolates the sim-layer
// cost: calendar pops, sleeper merging, scheduling.
type nullSubsetResolver struct{ n int }

func (r nullSubsetResolver) N() int                                     { return r.n }
func (r nullSubsetResolver) Resolve(tx []int) []sinr.Reception          { return nil }
func (r nullSubsetResolver) ResolveFor(tx, recv []int) []sinr.Reception { return nil }

// periodicSleeper transmits once per period on its own offset and
// sleeps the rest — the densest calendar traffic shape (every wake is
// rescheduled every period).
type periodicSleeper struct{ id, period int }

func (p *periodicSleeper) Tick(t int) (bool, Message) {
	if t%p.period == p.id%p.period {
		return true, Message{Kind: 1, A: int64(p.id)}
	}
	return false, Message{}
}

func (p *periodicSleeper) Recv(int, Message) {}

func (p *periodicSleeper) RecvWake(t int, _ Message) int { return t + 1 }

func (p *periodicSleeper) TickWake(t int) (bool, Message, int) {
	transmit, msg := p.Tick(t)
	off := p.id % p.period
	d := (off - (t+1)%p.period + p.period) % p.period
	return transmit, msg, t + 1 + d
}

// BenchmarkStepWakeScheduled measures the steady-state cost of one
// wake-scheduled round: n sleepers waking every period rounds, so each
// Step pops, sorts and reschedules n/period calendar entries. After
// the warm-up has grown the calendar ring and the bucket capacities,
// Step must run allocation-free — CI gates on the reported
// 0 allocs/op.
func BenchmarkStepWakeScheduled(b *testing.B) {
	const n, period = 65536, 512
	protos := make([]Protocol, n)
	for i := 0; i < n; i++ {
		protos[i] = &periodicSleeper{id: i, period: period}
	}
	prev := SetWakeSchedulingDefault(true)
	defer SetWakeSchedulingDefault(prev)
	e, err := NewEngine(nullSubsetResolver{n}, protos)
	if err != nil {
		b.Fatal(err)
	}
	e.Run(2*period, nil) // reach steady state: ring grown, buckets at capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
