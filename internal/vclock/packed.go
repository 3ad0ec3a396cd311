// Package vclock implements vector clocks for establishing the
// happens-before partial order among events of concurrently executing
// threads, in the style of Lamport's logical clocks generalized to
// vectors (one component per thread).
//
// A vector clock maps a thread identity to the number of "epochs" that
// thread has completed. Clock C1 happens-before clock C2 iff every
// component of C1 is <= the corresponding component of C2 and the two
// clocks differ. Two clocks neither of which happens-before the other
// are concurrent; that is the condition the race detectors test.
//
// Thread identities are opaque int64 values so a clock space can span
// MPI ranks and OpenMP threads: callers typically encode (rank, tid)
// pairs via a scheme of their choosing. The detector interns such
// global identities into one space per rank, so its clocks render
// the same threads by the same names in every rank.
//
// Packed is the one clock type. It is dense and slice-backed, built
// to make the detector's hot operations cheap (internal/difftest
// proves it against a map-backed reference on randomized histories):
//
//   - Components live in a slice indexed by dense Slot numbers that a
//     shared Space interns from sparse TIDs, so joins are linear scans
//     over contiguous memory instead of map walks.
//   - A clock owned by a thread carries its own component out-of-line
//     as a FastTrack-style epoch (own slot, own value). Tick is O(1)
//     and never touches the slice, so a clock whose slice is shared
//     with a snapshot can keep ticking without copying. The detector
//     orders an access before a clock with one epoch read (AtSlot).
//   - Snapshot freezes the slice and shares it (O(1)); the owner
//     clones lazily on its next structural mutation (copy-on-write).
//   - Adopt replaces a clock's components wholesale with a frozen
//     snapshot's (sharing the slice) when the join result would equal
//     the snapshot plus the clock's own component — the common case at
//     fork→begin, end→join accumulation and barrier completion. The
//     validity check is a read-only scan; no allocation, no writes.
package vclock

import (
	"fmt"
	"sort"
	"strings"
)

// TID identifies a logical thread within a clock space.
type TID int64

// Packed is a vector clock over the slots of one Space. Packed values
// are not safe for concurrent mutation; callers synchronize
// externally (the detectors own their clocks).
type Packed struct {
	sp     *Space
	base   []uint64
	frozen bool // base is shared with a snapshot; clone before writing
	own    Slot // owning thread's slot, or NoSlot for accumulators
	ownV   uint64
}

// Slot is a dense component index interned by a Space. Slot numbers
// depend on interning order and are meaningless across Spaces.
type Slot int32

// NoSlot marks a clock with no owning thread (accumulators).
const NoSlot Slot = -1

// Space interns sparse TIDs to dense slots. The detector keeps one
// Space per rank, shared by every clock of that rank's replay: no
// happens-before edge crosses ranks, so a clock is only as wide as
// its rank's team. A Space is not safe for concurrent interning (each
// rank's replay interns on the one worker that owns the rank), but
// read-only lookups after interning are safe to share.
type Space struct {
	slots map[TID]Slot
	tids  []TID
}

// NewSpace returns an empty slot space.
func NewSpace() *Space { return &Space{slots: make(map[TID]Slot)} }

// SlotOf interns (creating if needed) the slot for thread t.
func (s *Space) SlotOf(t TID) Slot {
	if sl, ok := s.slots[t]; ok {
		return sl
	}
	sl := Slot(len(s.tids))
	s.slots[t] = sl
	s.tids = append(s.tids, t)
	return sl
}

// Lookup returns the slot for t without interning.
func (s *Space) Lookup(t TID) (Slot, bool) {
	sl, ok := s.slots[t]
	return sl, ok
}

// TIDOf returns the thread identity a slot was interned for.
func (s *Space) TIDOf(sl Slot) TID { return s.tids[sl] }

// Width returns the number of interned threads.
func (s *Space) Width() int { return len(s.tids) }

// Clock returns a fresh all-zero clock owned by thread t.
func (s *Space) Clock(t TID) *Packed {
	return &Packed{sp: s, own: s.SlotOf(t)}
}

// Acc returns a fresh all-zero accumulator clock (no owning thread).
func (s *Space) Acc() *Packed { return &Packed{sp: s, own: NoSlot} }

// at returns the component at slot sl (the own epoch overrides the
// slice).
func (c *Packed) at(sl Slot) uint64 {
	var v uint64
	if int(sl) < len(c.base) {
		v = c.base[sl]
	}
	if sl == c.own && c.ownV > v {
		v = c.ownV
	}
	return v
}

// AtSlot returns the component at a dense slot — the detector's O(1)
// epoch-vs-clock test reads exactly one of these.
func (c *Packed) AtSlot(sl Slot) uint64 { return c.at(sl) }

// Get returns the component for thread t (zero if t was never
// interned).
func (c *Packed) Get(t TID) uint64 {
	sl, ok := c.sp.Lookup(t)
	if !ok {
		return 0
	}
	return c.at(sl)
}

// OwnSlot returns the owning thread's slot (NoSlot for accumulators).
func (c *Packed) OwnSlot() Slot { return c.own }

// OwnV returns the owning thread's component.
func (c *Packed) OwnV() uint64 { return c.ownV }

// Tick increments the owning thread's component and returns the new
// value. O(1): the own component lives out-of-line, so a frozen
// (snapshot-shared) slice needs no copy.
func (c *Packed) Tick() uint64 {
	if c.own < 0 {
		panic("vclock: Tick on accumulator clock")
	}
	c.ownV++
	return c.ownV
}

// materialize makes base privately writable with room for at least w
// slots, baking the own epoch into the slice.
func (c *Packed) materialize(w int) {
	if c.own >= 0 && int(c.own)+1 > w {
		w = int(c.own) + 1
	}
	if len(c.base) > w {
		w = len(c.base)
	}
	if c.frozen || w > len(c.base) {
		nb := make([]uint64, w)
		copy(nb, c.base)
		c.base = nb
		c.frozen = false
	}
	if c.own >= 0 && c.base[c.own] < c.ownV {
		c.base[c.own] = c.ownV
	}
}

// Join folds other into c component-wise (the O(width) slow path).
func (c *Packed) Join(other *Packed) {
	w := len(other.base)
	if other.own >= 0 && int(other.own)+1 > w {
		w = int(other.own) + 1
	}
	c.materialize(w)
	for i, v := range other.base {
		if v > c.base[i] {
			c.base[i] = v
		}
	}
	if other.own >= 0 && other.ownV > c.base[other.own] {
		c.base[other.own] = other.ownV
	}
	if c.own >= 0 && c.base[c.own] > c.ownV {
		c.ownV = c.base[c.own]
	}
}

// Snapshot returns an O(1) frozen view of the clock sharing its
// slice. The view observes the clock's state as of now; the owner's
// next structural mutation (Join, Adopt) clones first. The own epoch
// stays out-of-line, so a Snapshot is a valid comparison operand but
// not a valid Adopt source — publication points use Publish.
func (c *Packed) Snapshot() *Packed {
	c.frozen = true
	return &Packed{sp: c.sp, base: c.base, frozen: true, own: c.own, ownV: c.ownV}
}

// Publish returns a frozen view with the own epoch baked into the
// slice — the form required of Adopt sources (fork snapshots, release
// clocks, join/barrier accumulators). Costs one clone when the owner
// ticked since the slice last saw its component; O(1) otherwise.
func (c *Packed) Publish() *Packed {
	if c.own >= 0 && (int(c.own) >= len(c.base) || c.base[c.own] < c.ownV) {
		c.materialize(0)
	}
	c.frozen = true
	return &Packed{sp: c.sp, base: c.base, frozen: true, own: c.own, ownV: c.ownV}
}

// Adopt is the O(1)-amortized fast path for joins whose result equals
// the source: it verifies (read-only) that every non-own component of
// c is already <= other's, then shares other's slice wholesale,
// keeping c's own epoch out-of-line. Reports false — leaving c
// unchanged — when the fast path does not apply (some component of c
// exceeds other's, or other carries an unbaked foreign epoch). When
// it returns true the result is exactly Join(c, other).
func (c *Packed) Adopt(other *Packed) bool {
	if other.own >= 0 && other.own != c.own {
		var bv uint64
		if int(other.own) < len(other.base) {
			bv = other.base[other.own]
		}
		if other.ownV > bv {
			return false // unbaked foreign epoch would be lost
		}
	}
	for i, v := range c.base {
		if v == 0 || Slot(i) == c.own {
			continue
		}
		if v > other.at(Slot(i)) {
			return false
		}
	}
	other.frozen = true
	c.base = other.base
	c.frozen = true
	if c.own >= 0 {
		if int(c.own) < len(c.base) && c.base[c.own] > c.ownV {
			c.ownV = c.base[c.own]
		}
	}
	return true
}

// Components returns the number of nonzero components — the width
// statistic the detector's vc_width gauge tracks.
func (c *Packed) Components() int {
	n := 0
	for i, v := range c.base {
		if v != 0 || (Slot(i) == c.own && c.ownV != 0) {
			n++
		}
	}
	if c.own >= 0 && int(c.own) >= len(c.base) && c.ownV != 0 {
		n++
	}
	return n
}

// ExceedsAt returns the smallest thread identity whose component in c
// strictly exceeds the one in other (the witness proving c is not
// happens-before-or-equal to other); ok is false when no component
// of c exceeds other's.
func (c *Packed) ExceedsAt(other *Packed) (t TID, ok bool) {
	found := false
	consider := func(sl Slot) {
		if c.at(sl) > other.at(sl) {
			id := c.sp.TIDOf(sl)
			if !found || id < t {
				t, found = id, true
			}
		}
	}
	for i := range c.base {
		consider(Slot(i))
	}
	if c.own >= 0 && int(c.own) >= len(c.base) {
		consider(c.own)
	}
	return t, found
}

// Entry is one nonzero component of a clock.
type Entry struct {
	T TID
	V uint64
}

// Entries returns the clock's nonzero components sorted by thread
// identity — the form clocks are rendered and compared in.
func (c *Packed) Entries() []Entry {
	var out []Entry
	for i := range c.base {
		if v := c.at(Slot(i)); v != 0 {
			out = append(out, Entry{c.sp.TIDOf(Slot(i)), v})
		}
	}
	if c.own >= 0 && int(c.own) >= len(c.base) && c.ownV != 0 {
		out = append(out, Entry{c.sp.TIDOf(c.own), c.ownV})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Certificate is a concurrency certificate for a clock pair (a, b):
// component AT proves a is not happens-before-or-equal to b (a saw
// AT-events b had not) and BT proves the converse. Together they
// demonstrate that no happens-before edge orders the two stamped
// events in either direction.
type Certificate struct {
	AT TID
	AV uint64 // a[AT], with b[AT] < AV
	BT TID
	BV uint64 // b[BT], with a[BT] < BV
}

// WhyConcurrent extracts the concurrency certificate of two clocks,
// choosing the smallest witness components for deterministic output.
// ok is false when the clocks are ordered (no certificate exists).
func WhyConcurrent(a, b *Packed) (cert Certificate, ok bool) {
	at, aok := a.ExceedsAt(b)
	bt, bok := b.ExceedsAt(a)
	if !aok || !bok {
		return Certificate{}, false
	}
	return Certificate{AT: at, AV: a.Get(at), BT: bt, BV: b.Get(bt)}, true
}

// String renders the clock as {t1:v1, t2:v2, ...} with threads sorted,
// for stable test output and diagnostics.
func (c *Packed) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range c.Entries() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%d", e.T, e.V)
	}
	b.WriteByte('}')
	return b.String()
}
