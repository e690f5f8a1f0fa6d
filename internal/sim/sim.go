// Package sim runs synchronous-round simulations of distributed wireless
// protocols under the SINR model (§1.1): in each round every station
// either transmits or listens, the physical engine resolves receptions,
// and messages are delivered. Stations interact with the world only
// through the Protocol interface — they never see the network, other
// stations' state, or positions, which keeps the "ad hoc, no GPS,
// no carrier sensing" contract of the paper honest by construction.
package sim

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"sinrcast/internal/prof"
	"sinrcast/internal/sinr"
)

// Message is what a station puts on the air. The paper allows the
// broadcast message plus O(log n) extra bits (§1.1); Kind/A/B are that
// O(log n) annotation, and Round carries the global round counter used
// to synchronize non-spontaneously woken stations.
type Message struct {
	// Src is the transmitting station (filled by the engine).
	Src int
	// Round is the global round number at transmission (filled by the
	// engine; protocols read it to synchronize).
	Round int
	// Kind tags the protocol-level message type.
	Kind uint8
	// A and B are protocol-defined payload fields.
	A, B int64
}

// Protocol is the behavior of a single station. Implementations must
// only use their own local state: the engine calls Tick exactly once per
// round per station and Recv for each successful reception.
type Protocol interface {
	// Tick returns the station's action in round t: whether to transmit
	// and, if so, the message. A sleeping station returns (false, _).
	Tick(t int) (transmit bool, msg Message)
	// Recv delivers a successfully decoded message in round t. Recv is
	// called after all Tick calls of round t. A station never receives
	// in a round in which it transmitted.
	Recv(t int, msg Message)
}

// NeverWake is the wake round a Sleeper returns to sleep indefinitely:
// only a reception (or an engine reset) will tick it again.
const NeverWake = math.MaxInt

// Sleeper is the optional wake-scheduling capability of a Protocol: a
// station that knows it will be idle for a while can tell the engine how
// long, and the engine stops ticking it until then. TickWake(t) is
// Tick(t) plus the wake hint, under a strict contract: for every round
// u in the open interval (t, wake) the station asserts Tick(u) would
// return (false, _) without changing its state or consuming randomness.
// The engine may therefore skip those ticks — or not: ticking a sleeping
// station early (as SetWakeScheduling(false), calendar resets and
// reception wakes do) is always safe, because those ticks are no-ops by
// the same contract.
//
// A reception may change what the station will do, so the engine
// delivers it to a Sleeper through RecvWake, which returns the earliest
// round the station now needs a tick. The engine moves the station's
// wake earlier when that round precedes its current hint, and otherwise
// keeps the hint: a station whose reception leaves its plans unchanged
// (a colorer counting feedback, a flooder that already holds the
// message) sleeps on to its next transmission.
//
// Any station may decline the capability (by not implementing Sleeper,
// or by always returning wake = t+1); mixed populations are fine, and
// tick order stays ascending by station id among the stations actually
// ticked, so runs are byte-identical with scheduling on or off.
type Sleeper interface {
	Protocol
	// TickWake acts exactly like Tick and additionally returns the next
	// round the station needs to be ticked (> t, or NeverWake).
	TickWake(t int) (transmit bool, msg Message, wake int)
	// RecvWake acts exactly like Recv and additionally returns the
	// earliest round the station now needs to be ticked (> t), or
	// NeverWake to keep its current hint. The engine calls it instead of
	// Recv.
	RecvWake(t int, msg Message) (wake int)
}

// Resolver is the physical layer. *sinr.Engine, *sinr.GridEngine and
// *sinr.HierEngine all implement it (and SubsetResolver below).
type Resolver interface {
	Resolve(tx []int) []sinr.Reception
	N() int
}

// SubsetResolver is the optional physical-layer capability behind the
// engine's receiver-activity hook: resolving a round for an explicit
// receiver subset, byte-identical to a filtered full Resolve. All sinr
// engines implement it; wrapper channels (e.g. the fading engine, whose
// per-link randomness is drawn in full-network order) may not, in which
// case the engine transparently falls back to full resolution.
type SubsetResolver interface {
	Resolver
	ResolveFor(tx []int, receivers []int) []sinr.Reception
}

var (
	_ SubsetResolver = (*sinr.Engine)(nil)
	_ SubsetResolver = (*sinr.GridEngine)(nil)
	_ SubsetResolver = (*sinr.HierEngine)(nil)
)

// Tracer observes rounds; used by tests, stats and the CLIs.
type Tracer interface {
	// OnRound is called at the end of each round with the transmitter
	// set and the receptions. Slices are engine-owned: copy to retain.
	OnRound(t int, tx []int, rec []sinr.Reception)
}

// TracerFunc adapts a function to Tracer.
type TracerFunc func(t int, tx []int, rec []sinr.Reception)

// OnRound implements Tracer.
func (f TracerFunc) OnRound(t int, tx []int, rec []sinr.Reception) { f(t, tx, rec) }

// Metrics accumulates counters over a run.
type Metrics struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Transmissions counts station-rounds spent transmitting.
	Transmissions int64
	// Receptions counts successful deliveries.
	Receptions int64
	// BusyRounds counts rounds with at least one transmitter.
	BusyRounds int
}

// wakeSchedDefault is the package default for new engines; tests and
// benchmarks flip it to pin the tick-everyone reference path.
var wakeSchedDefault atomic.Bool

func init() { wakeSchedDefault.Store(true) }

// SetWakeSchedulingDefault sets whether newly constructed engines start
// with wake scheduling enabled (the default is true) and returns the
// previous value. Existing engines are not affected; use the per-engine
// SetWakeScheduling for those.
func SetWakeSchedulingDefault(on bool) (prev bool) {
	return wakeSchedDefault.Swap(on)
}

// calInitLen is the initial calendar ring size (a power of two).
const calInitLen = 64

// Engine drives one simulation.
type Engine struct {
	phys   Resolver
	subset SubsetResolver // phys when it supports ResolveFor, else nil
	protos []Protocol
	tracer Tracer
	msgs   []Message // per-station scratch of this round's messages
	txIDs  []int

	// Wake scheduling (see Sleeper): sleepers[i] is protos[i]'s Sleeper
	// capability or nil; nonSleepers lists the stations without it (they
	// tick every round). wake[i] is the next round sleeper i must tick;
	// cal is a power-of-two calendar ring of wake buckets indexed by
	// round & calMask, under the invariant that every scheduled wake is
	// less than len(cal) rounds ahead (schedule grows the ring to keep
	// it, so any bucket entry whose wake[id] disagrees with the current
	// round is provably stale and dropped). schedValid is false whenever
	// the calendar no longer reflects station state (engine creation,
	// scheduling toggled, or a tick-everyone Step ran); the next
	// scheduled Step then re-seeds every sleeper at the current round,
	// which is safe because ticking a sleeping station is a no-op.
	wakeSched   bool
	anySleeper  bool
	sleepers    []Sleeper
	nonSleepers []int32
	wake        []int
	cal         [][]int32
	calMask     int
	due         []int32
	schedValid  bool

	// Receiver-activity tracking (see SetReceiverActive): inactive
	// stations are excluded from reception resolution when the physical
	// layer supports subsets. activeRecv is rebuilt lazily when dirty.
	inactive    []bool
	inactiveN   int
	activeRecv  []int
	activeDirty bool

	// Metrics of the run so far.
	Metrics Metrics
	// round is the global clock; persists across Run calls so phased
	// protocols can be driven in segments.
	round int
}

// NewEngine pairs a physical resolver with one Protocol per station.
func NewEngine(phys Resolver, protos []Protocol) (*Engine, error) {
	if phys.N() != len(protos) {
		return nil, fmt.Errorf("sim: %d stations but %d protocols", phys.N(), len(protos))
	}
	subset, _ := phys.(SubsetResolver)
	e := &Engine{
		phys:      phys,
		subset:    subset,
		protos:    protos,
		msgs:      make([]Message, len(protos)),
		txIDs:     make([]int, 0, len(protos)),
		wakeSched: wakeSchedDefault.Load(),
	}
	for i, p := range protos {
		if s, ok := p.(Sleeper); ok {
			if e.sleepers == nil {
				e.sleepers = make([]Sleeper, len(protos))
			}
			e.sleepers[i] = s
			e.anySleeper = true
		}
	}
	if e.anySleeper {
		for i := range protos {
			if e.sleepers[i] == nil {
				e.nonSleepers = append(e.nonSleepers, int32(i))
			}
		}
		e.wake = make([]int, len(protos))
	}
	return e, nil
}

// SetWakeScheduling toggles the calendar-queue tick loop (default: the
// package default, normally on). Off is the reference path: every
// station ticks every round. The two paths are byte-identical — the
// toggle exists so tests can pin that.
func (e *Engine) SetWakeScheduling(on bool) {
	e.wakeSched = on
	e.schedValid = false
}

// SetReceiverActive marks whether station i still needs receptions
// resolved. Runners flip a station inactive once its state can no
// longer change by receiving — an informed flood station, an SBroadcast
// station past the coloring whose Recv is a no-op once informed — so
// late rounds stop paying O(n) interference work for receivers whose
// outcome is already settled.
//
// The contract is strict: receptions delivered to the remaining active
// stations are byte-identical to a full resolution (ResolveFor
// guarantees it); an inactive station simply hears nothing, and its
// Tick keeps running, so it may still transmit. Metrics.Receptions
// consequently counts only receptions at active stations. When the
// physical layer does not implement SubsetResolver the flag is recorded
// but every round resolves in full (receptions at inactive stations are
// then still delivered — callers must only deactivate stations whose
// Recv is a no-op, which makes the two paths behaviorally identical).
func (e *Engine) SetReceiverActive(i int, active bool) {
	if i < 0 || i >= len(e.protos) {
		panic(fmt.Sprintf("sim: station %d out of range [0,%d)", i, len(e.protos)))
	}
	if e.inactive == nil {
		if active {
			return
		}
		e.inactive = make([]bool, len(e.protos))
	}
	if e.inactive[i] == !active {
		return
	}
	e.inactive[i] = !active
	if active {
		e.inactiveN--
	} else {
		e.inactiveN++
	}
	e.activeDirty = true
}

// activeReceivers returns the sorted active-station list, rebuilding it
// only after SetReceiverActive changed something.
func (e *Engine) activeReceivers() []int {
	if e.activeDirty {
		e.activeRecv = e.activeRecv[:0]
		for i, off := range e.inactive {
			if !off {
				e.activeRecv = append(e.activeRecv, i)
			}
		}
		e.activeDirty = false
	}
	return e.activeRecv
}

// SetTracer installs an observer (nil disables tracing).
func (e *Engine) SetTracer(tr Tracer) { e.tracer = tr }

// Round returns the current global round number (the next round to run).
func (e *Engine) Round() int { return e.round }

// resetCalendar re-seeds the calendar: every sleeper is scheduled at the
// current round. Ticking a mid-sleep station is a no-op by the Sleeper
// contract, so this is always safe; each station re-announces its wake
// round on that tick and the calendar is exact again.
func (e *Engine) resetCalendar() {
	if len(e.cal) == 0 {
		e.cal = make([][]int32, calInitLen)
		e.calMask = calInitLen - 1
	} else {
		for i := range e.cal {
			e.cal[i] = e.cal[i][:0]
		}
	}
	t := e.round
	idx := t & e.calMask
	for i, s := range e.sleepers {
		if s != nil {
			e.wake[i] = t
			e.cal[idx] = append(e.cal[idx], int32(i))
		}
	}
	e.schedValid = true
}

// schedule inserts sleeper id into the wake bucket of round w (> the
// current round t, finite). Grows the ring so w-t < len(cal) holds for
// every scheduled entry.
func (e *Engine) schedule(id int32, w, t int) {
	if w-t >= len(e.cal) {
		e.growCalendar(w-t+1, t)
	}
	idx := w & e.calMask
	e.cal[idx] = append(e.cal[idx], id)
}

// growCalendar rebuilds the ring at the next power-of-two size ≥ minLen
// from the authoritative wake array, dropping stale entries in passing.
// Entries for the in-progress round t are not re-added: they are already
// in the due snapshot, and re-announce themselves when ticked.
func (e *Engine) growCalendar(minLen, t int) {
	size := len(e.cal) * 2
	if size < calInitLen {
		size = calInitLen
	}
	for size < minLen {
		size *= 2
	}
	cal := make([][]int32, size)
	mask := size - 1
	for i, s := range e.sleepers {
		if s == nil {
			continue
		}
		if w := e.wake[i]; w > t && w != NeverWake {
			cal[w&mask] = append(cal[w&mask], int32(i))
		}
	}
	e.cal, e.calMask = cal, mask
}

// tickAll is the reference tick loop: every station, ascending id.
func (e *Engine) tickAll(t int) {
	for i, p := range e.protos {
		transmit, msg := p.Tick(t)
		if transmit {
			msg.Src = i
			msg.Round = t
			e.msgs[i] = msg
			e.txIDs = append(e.txIDs, i)
		}
	}
}

// tickScheduled ticks only the stations due in round t: every
// non-Sleeper plus the sleepers whose wake round arrived, merged in
// ascending station order so the transmitter set is byte-identical to
// tickAll's. The due bucket may hold stale or duplicate entries
// (stations rescheduled by a reception); sorting and checking wake[id]
// filters both.
func (e *Engine) tickScheduled(t int) {
	if !e.schedValid {
		e.resetCalendar()
	}
	idx := t & e.calMask
	b := e.cal[idx]
	if !slices.IsSorted(b) {
		slices.Sort(b)
	}
	e.due = e.due[:0]
	last := int32(-1)
	for _, id := range b {
		if id != last && e.wake[id] == t {
			e.due = append(e.due, id)
		}
		last = id
	}
	e.cal[idx] = b[:0]
	due, ns := e.due, e.nonSleepers
	di, ni := 0, 0
	for di < len(due) || ni < len(ns) {
		var id int32
		var transmit bool
		var msg Message
		if ni >= len(ns) || (di < len(due) && due[di] < ns[ni]) {
			id = due[di]
			di++
			var w int
			transmit, msg, w = e.sleepers[id].TickWake(t)
			if w <= t {
				w = t + 1
			}
			e.wake[id] = w
			if w != NeverWake {
				e.schedule(id, w, t)
			}
		} else {
			id = ns[ni]
			ni++
			transmit, msg = e.protos[id].Tick(t)
		}
		if transmit {
			msg.Src = int(id)
			msg.Round = t
			e.msgs[id] = msg
			e.txIDs = append(e.txIDs, int(id))
		}
	}
}

// resolve runs the physical layer for the current transmitter set. A
// transmitter-free round is skipped entirely when the resolver is a
// SubsetResolver: subset resolution is contractually a pure function of
// (topology, tx, receivers), and no transmitter means no reception.
// Wrapper resolvers without the capability (which may consume per-round
// randomness inside Resolve) are always called.
func (e *Engine) resolve() []sinr.Reception {
	if e.subset != nil {
		if len(e.txIDs) == 0 {
			return nil
		}
		if e.inactiveN > 0 {
			return e.subset.ResolveFor(e.txIDs, e.activeReceivers())
		}
	}
	return e.phys.Resolve(e.txIDs)
}

// deliver hands each reception to its receiver: a Sleeper through
// RecvWake, whose answer moves its wake earlier (never later; the entry
// for the old wake round goes stale), a plain Protocol through Recv.
func (e *Engine) deliver(t int, rec []sinr.Reception) {
	sched := e.wakeSched && e.schedValid
	for _, r := range rec {
		msg := e.msgs[r.Transmitter]
		var s Sleeper
		if e.anySleeper {
			s = e.sleepers[r.Receiver]
		}
		if s == nil {
			e.protos[r.Receiver].Recv(t, msg)
			continue
		}
		w := s.RecvWake(t, msg)
		if w <= t {
			w = t + 1
		}
		if sched && w < e.wake[r.Receiver] {
			e.wake[r.Receiver] = w
			e.schedule(int32(r.Receiver), w, t)
		}
	}
}

// Step executes exactly one round and returns the number of successful
// receptions. The transmitter set handed to the physical layer is in
// ascending station order (stations tick in index order), and the
// active-receiver subset is ascending too — the shape sinr.HierEngine's
// cross-round delta path detects and exploits; protocol round loops get
// incremental far-field aggregation without doing anything.
//
// When prof phase labels are enabled (see prof.SetPhases), the tick /
// resolve / deliver / trace phases run under pprof labels so CPU
// profiles attribute sim-layer against resolver time.
func (e *Engine) Step() int {
	t := e.round
	e.txIDs = e.txIDs[:0]
	sched := e.wakeSched && e.anySleeper
	var rec []sinr.Reception
	if prof.PhasesEnabled() {
		prof.Phase("tick", func() {
			if sched {
				e.tickScheduled(t)
			} else {
				e.schedValid = false
				e.tickAll(t)
			}
		})
		prof.Phase("resolve", func() { rec = e.resolve() })
		prof.Phase("deliver", func() { e.deliver(t, rec) })
		if e.tracer != nil {
			prof.Phase("trace", func() { e.tracer.OnRound(t, e.txIDs, rec) })
		}
	} else {
		if sched {
			e.tickScheduled(t)
		} else {
			e.schedValid = false
			e.tickAll(t)
		}
		rec = e.resolve()
		e.deliver(t, rec)
		if e.tracer != nil {
			e.tracer.OnRound(t, e.txIDs, rec)
		}
	}
	e.Metrics.Rounds++
	e.Metrics.Transmissions += int64(len(e.txIDs))
	e.Metrics.Receptions += int64(len(rec))
	if len(e.txIDs) > 0 {
		e.Metrics.BusyRounds++
	}
	e.round++
	return len(rec)
}

// Run executes rounds until stop returns true (checked once before each
// round) or maxRounds rounds have run in this call. It returns the
// number of rounds executed by this call and whether stop fired. stop
// is evaluated at most once per round: when the budget runs out the
// last Step's outcome is not re-inspected (a side-effecting stop
// closure — a countdown, a channel poll — fires exactly rounds times).
func (e *Engine) Run(maxRounds int, stop func() bool) (rounds int, stopped bool) {
	for rounds < maxRounds {
		if stop != nil && stop() {
			return rounds, true
		}
		e.Step()
		rounds++
	}
	return rounds, false
}
