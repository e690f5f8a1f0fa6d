package sinr

import "math"

// soloMemo replays single-transmitter rounds. On a static deployment a
// full round's receptions are a pure function of the transmitter set,
// so the answer to "station t transmits alone" never changes: the
// first such round per station is resolved and its receptions copied
// into one slab, and every later one copies them back out instead of
// resolving. Protocols that take turns on the channel (NoS, S, and the
// consensus and leader election of §5) spend most of their busy rounds
// with one transmitter, sending to the same receivers again and again.
//
// The memo answers full rounds only — ResolveFor's answer depends on
// the receiver subset too — and only in Resolve itself, below every
// resolver wrapper, so tracing, progress and timing wrappers still see
// each round. It holds at most one entry per station, costs one
// 12-byte span per station plus the memoized receptions, and belongs
// to the per-run scratch: nil until the first solo round, empty in
// every Clone.
type soloMemo struct {
	span []soloSpan
	rec  []Reception
}

// soloSpan locates one transmitter's receptions in soloMemo.rec; ok is
// false until its first solo round resolved.
type soloSpan struct {
	lo, hi int32
	ok     bool
}

// soloMemoOff disables the memo. Only tests set it, to diff whole
// protocols with and without it.
var soloMemoOff bool

// replay returns the memoized receptions of tx, copied into dst[:0]
// (so the caller owns the result exactly as a resolved round's), when
// tx is a single transmitter whose solo round has been resolved.
func (m *soloMemo) replay(tx []int, dst []Reception) ([]Reception, bool) {
	if len(tx) != 1 || uint(tx[0]) >= uint(len(m.span)) || !m.span[tx[0]].ok {
		return dst, false
	}
	s := m.span[tx[0]]
	return append(dst[:0], m.rec[s.lo:s.hi]...), true
}

// record memoizes rec as the receptions of tx when tx is a single
// transmitter over n stations.
func (m *soloMemo) record(tx []int, n int, rec []Reception) {
	if len(tx) != 1 || soloMemoOff {
		return
	}
	if m.span == nil {
		m.span = make([]soloSpan, n)
	}
	lo := len(m.rec)
	if lo+len(rec) > math.MaxInt32 {
		return // spans are int32; past that the round resolves afresh
	}
	m.rec = append(m.rec, rec...)
	m.span[tx[0]] = soloSpan{lo: int32(lo), hi: int32(len(m.rec)), ok: true}
}
