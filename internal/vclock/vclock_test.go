package vclock

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// clockOf builds an accumulator clock with the given components.
func clockOf(sp *Space, comps map[TID]uint64) *Packed {
	c := sp.Acc()
	for t, v := range comps {
		q := sp.Clock(t)
		for i := uint64(0); i < v; i++ {
			q.Tick()
		}
		c.Join(q)
	}
	return c
}

// leq reports whether a happens-before-or-equals b: no component of a
// exceeds b's.
func leq(a, b *Packed) bool {
	_, exceeds := a.ExceedsAt(b)
	return !exceeds
}

// same reports whether two clocks have identical components.
func same(a, b *Packed) bool { return slices.Equal(a.Entries(), b.Entries()) }

func TestZeroValueLeqEverything(t *testing.T) {
	sp := NewSpace()
	zero := sp.Acc()
	other := clockOf(sp, map[TID]uint64{1: 5, 2: 3})
	if !leq(zero, other) {
		t.Fatalf("empty clock must be <= any clock")
	}
	if leq(other, zero) {
		t.Fatalf("nonzero clock must not be <= empty clock")
	}
	if _, ok := WhyConcurrent(zero, other); ok {
		t.Fatalf("ordered clocks must have no concurrency certificate")
	}
}

func TestTickAdvances(t *testing.T) {
	sp := NewSpace()
	c := sp.Clock(7)
	if got := c.Tick(); got != 1 {
		t.Fatalf("first tick = %d, want 1", got)
	}
	if got := c.Tick(); got != 2 {
		t.Fatalf("second tick = %d, want 2", got)
	}
	if c.Get(7) != 2 {
		t.Fatalf("Get after ticks = %d, want 2", c.Get(7))
	}
	if c.Get(8) != 0 {
		t.Fatalf("never-interned component = %d, want 0", c.Get(8))
	}
	sp.Clock(9)
	if c.Get(9) != 0 {
		t.Fatalf("untouched component = %d, want 0", c.Get(9))
	}
}

func TestHappensBeforeBasic(t *testing.T) {
	sp := NewSpace()
	a := clockOf(sp, map[TID]uint64{1: 1})
	b := clockOf(sp, map[TID]uint64{1: 2})
	if !leq(a, b) || leq(b, a) {
		t.Fatalf("{1:1} should happen before {1:2}")
	}
	if at, ok := b.ExceedsAt(a); !ok || at != 1 {
		t.Fatalf("ExceedsAt witness = (%d, %v), want (1, true)", at, ok)
	}
	if _, ok := WhyConcurrent(a, b); ok {
		t.Fatalf("ordered clocks must not be concurrent")
	}
}

func TestConcurrent(t *testing.T) {
	sp := NewSpace()
	a := clockOf(sp, map[TID]uint64{1: 2, 2: 0})
	b := clockOf(sp, map[TID]uint64{1: 1, 2: 1})
	cert, ok := WhyConcurrent(a, b)
	if !ok {
		t.Fatalf("%v and %v should be concurrent", a, b)
	}
	if want := (Certificate{AT: 1, AV: 2, BT: 2, BV: 1}); cert != want {
		t.Fatalf("certificate = %+v, want %+v", cert, want)
	}
	if _, ok := WhyConcurrent(b, a); !ok {
		t.Fatalf("concurrency must be symmetric")
	}
	if leq(a, b) || leq(b, a) {
		t.Fatalf("concurrent clocks must not be ordered")
	}
}

func TestJoinIsComponentwiseMax(t *testing.T) {
	sp := NewSpace()
	a := clockOf(sp, map[TID]uint64{1: 2, 2: 5})
	b := clockOf(sp, map[TID]uint64{1: 7, 3: 1})
	a.Join(b)
	want := []Entry{{1, 7}, {2, 5}, {3, 1}}
	if got := a.Entries(); !slices.Equal(got, want) {
		t.Fatalf("join = %v, want %v", got, want)
	}
}

// TestCopyIsIndependent checks copy-on-write after Adopt: a clock
// that adopted another's published view shares its slice, so ticking
// and joining it must leave the source untouched.
func TestCopyIsIndependent(t *testing.T) {
	sp := NewSpace()
	src := sp.Clock(1)
	src.Tick()
	pub := src.Publish()
	dst := sp.Clock(2)
	if !dst.Adopt(pub) {
		t.Fatal("Adopt refused a dominating clock")
	}
	dst.Tick()
	other := sp.Clock(3)
	other.Tick()
	dst.Join(other.Publish())
	if got := pub.String(); got != "{1:1}" {
		t.Fatalf("mutating the adopter changed the published view: %s", got)
	}
	if got := src.String(); got != "{1:1}" {
		t.Fatalf("mutating the adopter changed the source: %s", got)
	}
	if got := dst.String(); got != "{1:1, 2:1, 3:1}" {
		t.Fatalf("adopter = %s, want {1:1, 2:1, 3:1}", got)
	}
}

// TestEpoch checks the detector's O(1) order test: a thread's own
// epoch is <= a clock at its slot exactly when that clock observed it.
func TestEpoch(t *testing.T) {
	sp := NewSpace()
	c := sp.Clock(3)
	for i := 0; i < 3; i++ {
		c.Tick()
	}
	older := sp.Acc()
	older.Join(c.Publish())
	c.Tick()
	slot, v := c.OwnSlot(), c.OwnV()
	if sp.TIDOf(slot) != 3 || v != 4 {
		t.Fatalf("own epoch = (%d, %d), want (3, 4)", sp.TIDOf(slot), v)
	}
	seen := sp.Acc()
	seen.Join(c.Publish())
	if !(v <= seen.AtSlot(slot)) {
		t.Fatalf("epoch should be <= clocks that observed it")
	}
	if v <= older.AtSlot(slot) {
		t.Fatalf("epoch should not be <= older clock")
	}
}

func TestStringStable(t *testing.T) {
	sp := NewSpace()
	c := clockOf(sp, map[TID]uint64{5: 1, 2: 3})
	own := sp.Clock(9) // slot beyond c's slice: rendered from the own epoch
	for i := 0; i < 7; i++ {
		own.Tick()
	}
	if !own.Adopt(c.Publish()) {
		t.Fatal("Adopt refused a dominating clock")
	}
	const want = "{2:3, 5:1, 9:7}"
	for i := 0; i < 10; i++ {
		if got := own.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
}

// randPacked builds a small random clock for property tests; about
// half are thread clocks, whose own component lives out of line.
func randPacked(sp *Space, r *rand.Rand) *Packed {
	c := sp.Acc()
	if r.Intn(2) == 0 {
		c = sp.Clock(TID(r.Intn(4)))
		for v := r.Intn(4); v > 0; v-- {
			c.Tick()
		}
	}
	for n := r.Intn(5); n > 0; n-- {
		q := sp.Clock(TID(r.Intn(4)))
		for v := r.Intn(4); v > 0; v-- {
			q.Tick()
		}
		c.Join(q)
	}
	return c
}

// joinOf returns a fresh accumulator holding the join of cs.
func joinOf(sp *Space, cs ...*Packed) *Packed {
	j := sp.Acc()
	for _, c := range cs {
		j.Join(c)
	}
	return j
}

func TestPropLeqPartialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	sp := NewSpace()
	// Reflexivity, antisymmetry (up to equal components), transitivity.
	f := func() bool {
		a, b, c := randPacked(sp, r), randPacked(sp, r), randPacked(sp, r)
		if !leq(a, a) {
			return false
		}
		if leq(a, b) && leq(b, a) && !same(a, b) {
			return false
		}
		if leq(a, b) && leq(b, c) && !leq(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropJoinIsLUB(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	sp := NewSpace()
	f := func() bool {
		a, b := randPacked(sp, r), randPacked(sp, r)
		j := joinOf(sp, a, b)
		// Upper bound.
		if !leq(a, j) || !leq(b, j) {
			return false
		}
		// Least: any other upper bound dominates the join.
		u := joinOf(sp, a, b, randPacked(sp, r))
		return leq(j, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropJoinCommutativeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sp := NewSpace()
	f := func() bool {
		a, b := randPacked(sp, r), randPacked(sp, r)
		if !same(joinOf(sp, a, b), joinOf(sp, b, a)) {
			return false
		}
		aa := joinOf(sp, a)
		aa.Join(a)
		return same(aa, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropJoinAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sp := NewSpace()
	f := func() bool {
		a, b, c := randPacked(sp, r), randPacked(sp, r), randPacked(sp, r)
		left := joinOf(sp, joinOf(sp, a, b), c)  // (a ⊔ b) ⊔ c
		right := joinOf(sp, a, joinOf(sp, b, c)) // a ⊔ (b ⊔ c)
		return same(left, right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropExactlyOneRelation checks that any two clocks are equal,
// strictly ordered one way, or concurrent (certified), and never two
// of these at once.
func TestPropExactlyOneRelation(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	sp := NewSpace()
	f := func() bool {
		a, b := randPacked(sp, r), randPacked(sp, r)
		eq := same(a, b)
		rel := 0
		if eq {
			rel++
		}
		if leq(a, b) && !eq {
			rel++
		}
		if leq(b, a) && !eq {
			rel++
		}
		if _, ok := WhyConcurrent(a, b); ok {
			rel++
		}
		return rel == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropEpochConsistentWithLeq checks the FastTrack shortcut: a
// thread clock's own epoch is its component at its own slot, so it
// passes the epoch test against every clock it is <= to.
func TestPropEpochConsistentWithLeq(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	sp := NewSpace()
	f := func() bool {
		tid := TID(r.Intn(4))
		a := sp.Clock(tid)
		for v := r.Intn(4); v > 0; v-- {
			a.Tick()
		}
		a.Join(randPacked(sp, r))
		b := randPacked(sp, r)
		if a.OwnV() != a.Get(tid) {
			return false
		}
		epochLeq := a.OwnV() <= b.AtSlot(a.OwnSlot())
		if leq(a, b) && !epochLeq {
			return false
		}
		return epochLeq == (a.Get(tid) <= b.Get(tid))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
