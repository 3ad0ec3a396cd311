package vclock

import "testing"

func TestPackedSnapshotIsImmutable(t *testing.T) {
	sp := NewSpace()
	c := sp.Clock(1)
	c.Tick()
	c.Tick()
	other := sp.Clock(2)
	other.Tick()
	c.Join(other.Publish()) // c now writes a slice of its own
	snap := c.Snapshot()
	want := snap.String()
	c.Tick()
	other.Tick()
	c.Join(other.Publish())
	if snap.String() != want {
		t.Fatalf("snapshot mutated by owner activity: %s, want %s", snap, want)
	}
	if got := c.Get(1); got != 3 {
		t.Fatalf("owner component after snapshot = %d, want 3", got)
	}
}

func TestPackedAdoptEqualsJoin(t *testing.T) {
	sp := NewSpace()
	a, b := sp.Clock(1), sp.Clock(2)
	b.Tick()
	b.Tick()
	a.Tick()
	pub := b.Publish()
	// a has its own component only, so adopting b's published clock
	// must succeed and equal the join.
	ref := joinOf(sp, a, b)
	if !a.Adopt(pub) {
		t.Fatal("Adopt refused a dominated clock")
	}
	if !same(a, ref) {
		t.Fatalf("Adopt result %s, want join result %s", a, ref)
	}
	// Now a has foreign knowledge b lacks; adopting a stale published
	// view must refuse and leave a unchanged.
	c := sp.Clock(3)
	c.Tick()
	a.Join(c.Publish())
	before := a.String()
	if a.Adopt(pub) {
		t.Fatal("Adopt accepted a clock missing foreign components")
	}
	if a.String() != before {
		t.Fatalf("failed Adopt mutated the clock: %s, want %s", a, before)
	}
}

func TestPackedAdoptRefusesUnbakedEpoch(t *testing.T) {
	sp := NewSpace()
	a, b := sp.Clock(1), sp.Clock(2)
	b.Tick()
	// A raw Snapshot (epoch not baked into the slice) is not a valid
	// adoption source: the foreign own component would be lost.
	if a.Adopt(b.Snapshot()) {
		t.Fatal("Adopt accepted an unbaked snapshot")
	}
	if !a.Adopt(b.Publish()) {
		t.Fatal("Adopt refused the published form of the same clock")
	}
	if got := a.Get(2); got != 1 {
		t.Fatalf("adopted component = %d, want 1", got)
	}
}

func TestPackedAccumulatorTickPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Tick on an accumulator did not panic")
		}
	}()
	NewSpace().Acc().Tick()
}

func TestPackedComponentsMatchesMapWidth(t *testing.T) {
	sp := NewSpace()
	c := sp.Clock(7)
	if c.Components() != 0 {
		t.Fatalf("fresh clock has %d components", c.Components())
	}
	c.Tick()
	if c.Components() != 1 {
		t.Fatalf("ticked clock has %d components, want 1", c.Components())
	}
	d := sp.Clock(9)
	d.Tick()
	c.Join(d.Publish())
	if got, want := c.Components(), len(c.Entries()); got != want {
		t.Fatalf("Components() = %d, map width = %d", got, want)
	}
}
