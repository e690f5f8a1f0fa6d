package main

import (
	"time"

	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// resolveStats accumulates what a timed physical layer did.
type resolveStats struct {
	ns              time.Duration
	resolveCalls    int64
	resolveForCalls int64
	receivers       int64
}

// timeResolver wraps phys so every Resolve and ResolveFor call is
// timed and counted into st. The wrapper implements sim.SubsetResolver
// exactly when phys does: protocols that find no subset capability
// fall back to full Resolve, which would measure a different program.
func timeResolver(phys sim.Resolver, st *resolveStats) sim.Resolver {
	if sub, ok := phys.(sim.SubsetResolver); ok {
		return &timedSubsetResolver{timedResolver{phys, st}, sub}
	}
	return &timedResolver{phys, st}
}

type timedResolver struct {
	inner sim.Resolver
	st    *resolveStats
}

func (t *timedResolver) Resolve(tx []int) []sinr.Reception {
	t0 := time.Now()
	rec := t.inner.Resolve(tx)
	t.st.ns += time.Since(t0)
	t.st.resolveCalls++
	t.st.receivers += int64(t.inner.N())
	return rec
}

func (t *timedResolver) N() int { return t.inner.N() }

type timedSubsetResolver struct {
	timedResolver
	sub sim.SubsetResolver
}

func (t *timedSubsetResolver) ResolveFor(tx []int, receivers []int) []sinr.Reception {
	t0 := time.Now()
	rec := t.sub.ResolveFor(tx, receivers)
	t.st.ns += time.Since(t0)
	t.st.resolveForCalls++
	t.st.receivers += int64(len(receivers))
	return rec
}
