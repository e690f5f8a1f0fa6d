package exp

import (
	"sync"
	"sync/atomic"

	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// enginePooling gates trial engine reuse across the experiment
// drivers. On (the default), T trials over one network pay for one
// topology construction; off, every trial builds its engine from
// scratch — the reference path the identity tests pin the pooled one
// against. Results are byte-identical either way: pooled engines are
// sinr engines, whose Resolve output depends only on the topology and
// the round's transmitter set, never on prior rounds (the purity
// contract pinned by the clone and round-sequence property tests).
var enginePooling atomic.Bool

func init() { enginePooling.Store(true) }

// enginePool hands each trial a physical engine over one shared
// network. The first build that yields a cloneable sinr engine is
// kept as a pristine prototype — never handed out, so it is never
// mutated — and later trials get clones sharing its topology slabs,
// or recycled engines returned by put. Non-cloneable resolvers
// (fading and other wrapper channels with per-trial state) fall back
// to a fresh build every time. Safe for concurrent use by the
// trialPool workers; each engine is owned by one trial between get
// and put.
type enginePool struct {
	build func() (sim.Resolver, error)

	mu     sync.Mutex
	proto  sim.Resolver
	free   []sim.Resolver
	builds int // fresh constructions, for tests
}

func newEnginePool(build func() (sim.Resolver, error)) *enginePool {
	return &enginePool{build: build}
}

func (p *enginePool) get() (sim.Resolver, error) {
	if !enginePooling.Load() {
		p.mu.Lock()
		p.builds++
		p.mu.Unlock()
		return p.build()
	}
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return r, nil
	}
	if p.proto != nil {
		r, _ := sinr.CloneResolver(p.proto)
		p.mu.Unlock()
		return r, nil
	}
	p.builds++
	p.mu.Unlock()
	r, err := p.build()
	if err != nil {
		return nil, err
	}
	if sinr.Cloneable(r) {
		p.mu.Lock()
		if p.proto == nil {
			// Keep the pristine original as the prototype and hand out
			// a clone. Two racing first builds both reach here; the
			// loser just returns its fresh engine directly.
			p.proto = r
			c, _ := sinr.CloneResolver(r)
			p.mu.Unlock()
			return c, nil
		}
		p.mu.Unlock()
	}
	return r, nil
}

// put returns an engine to the pool for the next trial. Only
// cloneable sinr engines are recycled — their used state resolves
// identically to a fresh engine's — anything else is dropped.
func (p *enginePool) put(r sim.Resolver) {
	if r == nil || !enginePooling.Load() || !sinr.Cloneable(r) {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, r)
	p.mu.Unlock()
}
