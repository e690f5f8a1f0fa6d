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
	"math/bits"

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
// only use their own local state: each round the engine ticks the
// stations that are due, in ascending id, and then calls Recv for each
// successful reception.
//
// Both methods return a wake hint, the next round the station needs a
// tick, under a strict contract: for every round u strictly between t
// and wake the station asserts Tick(u) would transmit nothing without
// changing its state or consuming randomness. The engine skips those
// ticks. Ticking a station early is always safe — those ticks are
// no-ops by the same contract — so the engine clamps far hints to its
// calendar horizon, and a station that cannot predict its next action
// returns t+1. A hint ≤ t+1 means the next round; NeverWake sleeps
// until a reception.
//
// A reception may change what the station will do, so Recv returns the
// earliest round the station now needs a tick. The engine moves the
// station's wake earlier when that round precedes its current hint and
// otherwise keeps the hint: a station whose reception leaves its plans
// unchanged (a colorer counting feedback, a flooder that already holds
// the message) returns NeverWake and sleeps on to its next action.
type Protocol interface {
	// Tick returns the station's action in round t — whether to
	// transmit and, if so, the message — and the next round it needs a
	// tick (> t, or NeverWake). A silent station returns (false, _, _).
	Tick(t int) (transmit bool, msg Message, wake int)
	// Recv delivers a successfully decoded message in round t, after all
	// Tick calls of round t, and returns the earliest round the station
	// now needs a tick (> t), or NeverWake to keep its current hint. A
	// station never receives in a round in which it transmitted.
	Recv(t int, msg Message) (wake int)
}

// NeverWake is the wake hint of a station with nothing planned: only a
// reception will tick it again.
const NeverWake = math.MaxInt

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

// The calendar ring starts at calInitLen buckets and grows to at most
// calMaxLen (both powers of two). Hints farther out are clamped to the
// horizon: the station ticks early, which is a no-op under the Protocol
// contract, and re-announces its hint.
const (
	calInitLen = 64
	calMaxLen  = 4096
)

// unlinked is the calPrev of a station that is in no calendar bucket
// (a list head's calPrev is -1).
const unlinked = -2

// newRing returns a calendar ring of size empty buckets.
func newRing(size int) []int32 {
	cal := make([]int32, size)
	for i := range cal {
		cal[i] = -1
	}
	return cal
}

// dueSet is the set of stations a round's calendar bucket names, as a
// two-level bitmap: words holds one bit per station, and bit w of sum
// marks words[w] non-empty. Popping the members in ascending id costs
// O(n/4096 + members), so a bucket is ordered without a sort.
type dueSet struct {
	words, sum []uint64
	at         int // summary word pop resumes at; every earlier one is 0
}

func newDueSet(n int) dueSet {
	nw := (n + 63) / 64
	buf := make([]uint64, nw+(nw+63)/64)
	return dueSet{words: buf[:nw:nw], sum: buf[nw:]}
}

func (d *dueSet) add(id int32) {
	w := id >> 6
	d.words[w] |= 1 << uint(id&63)
	d.sum[w>>6] |= 1 << uint(w&63)
}

// pop removes and returns the smallest member, or -1 once the set is
// empty (and rewinds for the next round).
func (d *dueSet) pop() int32 {
	for ; d.at < len(d.sum); d.at++ {
		s := d.sum[d.at]
		if s == 0 {
			continue
		}
		w := d.at<<6 + bits.TrailingZeros64(s)
		word := d.words[w]
		id := int32(w<<6 + bits.TrailingZeros64(word))
		word &= word - 1
		d.words[w] = word
		if word == 0 {
			d.sum[d.at] = s & (s - 1)
		}
		return id
	}
	d.at = 0
	return -1
}

// wrapStation, when non-nil, wraps every station NewEngine is given.
// Only tests set it, to run whole protocols on a reference adapter.
var wrapStation func(Protocol) Protocol

// Engine drives one simulation.
type Engine struct {
	phys   Resolver
	subset SubsetResolver // phys when it supports ResolveFor, else nil
	protos []Protocol
	tracer Tracer
	msgs   []Message // per-station scratch of this round's messages
	txIDs  []int

	// Wake scheduling (see Protocol): wake[i] is the next round station
	// i must tick. next lists, ascending, the stations whose tick in the
	// previous round asked for the current one — the lane every-round
	// stations ride without touching the calendar; spare is its double
	// buffer. Every later wake sits in the calendar, a power-of-two ring
	// of buckets indexed by round & calMask: cal[b] is the first station
	// of bucket b (-1: empty), and calNext/calPrev chain a bucket's
	// stations through per-station slots. A station is in one bucket at
	// most — rescheduling unlinks it — so the calendar costs two int32s
	// per station however full its buckets get. Every scheduled wake is
	// less than len(cal) rounds ahead, so round t's bucket holds exactly
	// the calendar's stations due in round t; due orders them for the
	// tick loop.
	wake    []int
	next    []int32
	spare   []int32
	cal     []int32
	calNext []int32
	calPrev []int32
	calMask int
	due     dueSet

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
	if wrapStation != nil {
		wrapped := make([]Protocol, len(protos))
		for i, p := range protos {
			wrapped[i] = wrapStation(p)
		}
		protos = wrapped
	}
	subset, _ := phys.(SubsetResolver)
	links := make([]int32, 2*len(protos))
	e := &Engine{
		phys:    phys,
		subset:  subset,
		protos:  protos,
		msgs:    make([]Message, len(protos)),
		txIDs:   make([]int, 0, len(protos)),
		wake:    make([]int, len(protos)), // everyone is due in round 0
		next:    make([]int32, len(protos)),
		cal:     newRing(calInitLen),
		calNext: links[:len(protos)],
		calPrev: links[len(protos):],
		calMask: calInitLen - 1,
		due:     newDueSet(len(protos)),
	}
	for i := range e.next {
		e.next[i] = int32(i)
		e.calPrev[i] = unlinked
	}
	return e, nil
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

// schedule moves station id's wake to round w (> the current round t,
// finite) in the calendar, clamped to the calMaxLen horizon. It grows
// the ring so w-t < len(cal) holds for every scheduled station.
func (e *Engine) schedule(id int32, w, t int) {
	if w-t >= calMaxLen {
		w = t + calMaxLen - 1
	}
	if w-t >= len(e.cal) {
		e.growCalendar(w - t + 1)
	}
	e.unlink(id)
	e.wake[id] = w
	e.link(id)
}

// link pushes station id onto the bucket of its wake round.
func (e *Engine) link(id int32) {
	b := e.wake[id] & e.calMask
	h := e.cal[b]
	e.calNext[id], e.calPrev[id] = h, -1
	if h >= 0 {
		e.calPrev[h] = id
	}
	e.cal[b] = id
}

// unlink takes station id out of its bucket, if it is in one; wake[id]
// must still name that bucket's round.
func (e *Engine) unlink(id int32) {
	p := e.calPrev[id]
	if p == unlinked {
		return
	}
	nx := e.calNext[id]
	if p < 0 {
		e.cal[e.wake[id]&e.calMask] = nx
	} else {
		e.calNext[p] = nx
	}
	if nx >= 0 {
		e.calPrev[nx] = p
	}
	e.calPrev[id] = unlinked
}

// growCalendar rebuilds the ring at the next power-of-two size ≥ minLen,
// relinking every scheduled station by its wake round.
func (e *Engine) growCalendar(minLen int) {
	size := 2 * len(e.cal)
	for size < minLen {
		size *= 2
	}
	old := e.cal
	e.cal, e.calMask = newRing(size), size-1
	for _, id := range old {
		for id >= 0 {
			nx := e.calNext[id]
			e.link(id)
			id = nx
		}
	}
}

// tick ticks the stations due in round t — the next lane merged with
// round t's calendar bucket — in ascending id. The bucket is unlinked
// into the due set, which orders it, before any tick: nothing a tick
// schedules lands in round t's bucket, even when the ring grows, since
// every wake is less than len(cal) rounds ahead. The two sets are
// disjoint (a lane station's wake is t+1 when it joins, and only a
// reception moving a wake earlier reschedules a station outside its
// own tick), so each due station ticks once. A station asking for t+1
// joins the next lane, which stays ascending because ticks are.
func (e *Engine) tick(t int) {
	b := t & e.calMask
	for id := e.cal[b]; id >= 0; id = e.calNext[id] {
		e.due.add(id)
		e.calPrev[id] = unlinked
	}
	e.cal[b] = -1
	cur, next := e.next, e.spare[:0]
	ci, di := 0, e.due.pop()
	for ci < len(cur) || di >= 0 {
		var id int32
		if di < 0 || (ci < len(cur) && cur[ci] <= di) {
			id = cur[ci]
			ci++
		} else {
			id = di
			di = e.due.pop()
		}
		transmit, msg, w := e.protos[id].Tick(t)
		switch {
		case w <= t+1:
			e.wake[id] = t + 1
			next = append(next, id)
		case w == NeverWake:
			e.wake[id] = NeverWake
		default:
			e.schedule(id, w, t)
		}
		if transmit {
			msg.Src = int(id)
			msg.Round = t
			e.msgs[id] = msg
			e.txIDs = append(e.txIDs, int(id))
		}
	}
	e.next, e.spare = next, cur
}

// resolve runs the physical layer for the current transmitter set. A
// transmitter-free round is skipped entirely when the resolver is a
// SubsetResolver: subset resolution is contractually a pure function of
// (topology, tx, receivers), and no transmitter means no reception.
// Wrapper resolvers without the capability (which may consume per-round
// randomness inside Resolve) are always called. Repeated single-
// transmitter rounds are not skipped here: each engine replays them
// inside its own Resolve, so wrappers still observe every round.
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

// deliver hands each reception to its receiver, whose answer moves its
// wake earlier, never later (schedule unlinks it from its old bucket).
func (e *Engine) deliver(t int, rec []sinr.Reception) {
	for _, r := range rec {
		id := r.Receiver
		w := e.protos[id].Recv(t, e.msgs[r.Transmitter])
		if w <= t {
			w = t + 1
		}
		if w < e.wake[id] {
			e.schedule(int32(id), w, t)
		}
	}
}

// Step executes exactly one round and returns the number of successful
// receptions. The transmitter set handed to the physical layer is in
// ascending station order (stations tick in index order), and the
// active-receiver subset is ascending too, so a round repeating the
// previous one is recognised by sinr.HierEngine, which keeps its cached
// far field for it.
//
// When prof phase labels are enabled (see prof.SetPhases), the tick /
// resolve / deliver / trace phases run under pprof labels so CPU
// profiles attribute sim-layer against resolver time.
func (e *Engine) Step() int {
	t := e.round
	e.txIDs = e.txIDs[:0]
	var rec []sinr.Reception
	if prof.PhasesEnabled() {
		prof.Phase("tick", func() { e.tick(t) })
		prof.Phase("resolve", func() { rec = e.resolve() })
		prof.Phase("deliver", func() { e.deliver(t, rec) })
		if e.tracer != nil {
			prof.Phase("trace", func() { e.tracer.OnRound(t, e.txIDs, rec) })
		}
	} else {
		e.tick(t)
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
