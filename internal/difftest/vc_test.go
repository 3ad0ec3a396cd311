package difftest

import (
	"fmt"
	"sort"
	"strings"

	"home/internal/vclock"
)

// VC is the map-backed reference vector clock: one map entry per
// nonzero component, every operation a plain walk over the map. It
// is the straightforward implementation vclock.Packed is checked
// against, operation by operation.
type VC map[vclock.TID]uint64

// Tick increments the component for thread t and returns the new value.
func (c VC) Tick(t vclock.TID) uint64 {
	c[t]++
	return c[t]
}

// Join sets c to the component-wise maximum of c and other.
func (c VC) Join(other VC) {
	for t, v := range other {
		if v > c[t] {
			c[t] = v
		}
	}
}

// ExceedsAt returns the smallest thread identity whose component in c
// strictly exceeds the one in other; ok is false when there is none.
func (c VC) ExceedsAt(other VC) (t vclock.TID, ok bool) {
	for ct, v := range c {
		if v > other[ct] && (!ok || ct < t) {
			t, ok = ct, true
		}
	}
	return t, ok
}

// whyConcurrent is the reference for vclock.WhyConcurrent.
func whyConcurrent(a, b VC) (cert vclock.Certificate, ok bool) {
	at, aok := a.ExceedsAt(b)
	bt, bok := b.ExceedsAt(a)
	if !aok || !bok {
		return vclock.Certificate{}, false
	}
	return vclock.Certificate{AT: at, AV: a[at], BT: bt, BV: b[bt]}, true
}

// String renders the clock as {t1:v1, t2:v2, ...} with threads sorted.
func (c VC) String() string {
	tids := make([]vclock.TID, 0, len(c))
	for t, v := range c {
		if v != 0 {
			tids = append(tids, t)
		}
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range tids {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%d", t, c[t])
	}
	b.WriteByte('}')
	return b.String()
}

// toVC converts a packed clock to the reference representation.
func toVC(p *vclock.Packed) VC {
	out := VC{}
	for _, e := range p.Entries() {
		out[e.T] = e.V
	}
	return out
}
