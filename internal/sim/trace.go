package sim

import "sinrcast/internal/sinr"

// CountingTracer records per-round transmitter and reception counts.
type CountingTracer struct {
	TxPerRound  []int
	RecPerRound []int
}

var _ Tracer = (*CountingTracer)(nil)

// OnRound implements Tracer.
func (c *CountingTracer) OnRound(_ int, tx []int, rec []sinr.Reception) {
	c.TxPerRound = append(c.TxPerRound, len(tx))
	c.RecPerRound = append(c.RecPerRound, len(rec))
}

// RoundLog records the physical-layer rounds of a run: per resolved
// round the transmitter set and, for subset rounds, the receiver
// subset (nil for full resolution). Captured traces replay protocol-
// realistic transmitter churn against an engine without re-running the
// protocol — the cross-round benchmarks and the delta-path regression
// gate are built on it.
type RoundLog struct {
	Tx   [][]int
	Recv [][]int
}

func (l *RoundLog) record(tx, recv []int) {
	l.Tx = append(l.Tx, append([]int(nil), tx...))
	if recv == nil {
		l.Recv = append(l.Recv, nil)
	} else {
		// Keep an empty subset distinguishable from nil (= full
		// resolution): a round resolved for zero receivers is near
		// free and must replay that way.
		l.Recv = append(l.Recv, append(make([]int, 0, len(recv)), recv...))
	}
}

// RecordRounds wraps phys so every Resolve/ResolveFor call of a run
// appends its round to log. The wrapper preserves the subset-
// resolution capability: if phys implements SubsetResolver the result
// does too, so runners keep their active-receiver optimizations while
// being traced.
func RecordRounds(phys Resolver, log *RoundLog) Resolver {
	if sub, ok := phys.(SubsetResolver); ok {
		return &recordingSubsetResolver{recordingResolver{phys, log}, sub}
	}
	return &recordingResolver{phys, log}
}

type recordingResolver struct {
	inner Resolver
	log   *RoundLog
}

func (r *recordingResolver) Resolve(tx []int) []sinr.Reception {
	r.log.record(tx, nil)
	return r.inner.Resolve(tx)
}

func (r *recordingResolver) N() int { return r.inner.N() }

type recordingSubsetResolver struct {
	recordingResolver
	sub SubsetResolver
}

func (r *recordingSubsetResolver) ResolveFor(tx []int, receivers []int) []sinr.Reception {
	r.log.record(tx, receivers)
	return r.sub.ResolveFor(tx, receivers)
}

// ObserveRounds wraps phys so fn observes every resolved round: it is
// called after each Resolve/ResolveFor with the 0-based round index
// (counted per wrapper), the transmitter count, and the reception
// count. Like RecordRounds, the wrapper preserves the subset-
// resolution capability. The serve layer streams job progress through
// it and aborts canceled jobs from inside fn — a panic out of fn
// unwinds through the wrapper untouched, so a caller can recover its
// own sentinel above the run.
func ObserveRounds(phys Resolver, fn func(round, tx, rec int)) Resolver {
	if sub, ok := phys.(SubsetResolver); ok {
		return &observedSubsetResolver{observedResolver{inner: phys, fn: fn}, sub}
	}
	return &observedResolver{inner: phys, fn: fn}
}

type observedResolver struct {
	inner Resolver
	fn    func(round, tx, rec int)
	round int
}

func (o *observedResolver) Resolve(tx []int) []sinr.Reception {
	rec := o.inner.Resolve(tx)
	r := o.round
	o.round++
	o.fn(r, len(tx), len(rec))
	return rec
}

func (o *observedResolver) N() int { return o.inner.N() }

type observedSubsetResolver struct {
	observedResolver
	sub SubsetResolver
}

func (o *observedSubsetResolver) ResolveFor(tx []int, receivers []int) []sinr.Reception {
	rec := o.sub.ResolveFor(tx, receivers)
	r := o.round
	o.round++
	o.fn(r, len(tx), len(rec))
	return rec
}
