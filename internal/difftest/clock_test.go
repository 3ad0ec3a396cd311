package difftest

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"home/internal/vclock"
)

// mirrored is a reference/packed clock pair driven by the same
// operation stream. Thread clocks own a TID; accumulator pairs mirror
// the detector's join/barrier accumulators (no owner).
type mirrored struct {
	tid vclock.TID // owner, or -1 for accumulators
	vc  VC
	pk  *vclock.Packed
}

// TestClockEquivalenceRandomHistories drives randomized histories of
// ticks, joins, snapshots, publications and adoptions through both
// clock implementations in lockstep and asserts the full observable
// algebra agrees: components (which fix every order relation),
// ExceedsAt, the concurrency certificate, the own-epoch order test
// and the rendered string.
func TestClockEquivalenceRandomHistories(t *testing.T) {
	withGOMAXPROCS(t, func(t *testing.T) {
		for h := 0; h < 30; h++ {
			h := h
			t.Run(fmt.Sprintf("history=%d", h), func(t *testing.T) {
				runClockHistory(t, int64(h)*7919+1)
			})
		}
	})
}

func runClockHistory(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sp := vclock.NewSpace()

	// Sparse thread identities, like the detector's rank/tid packing.
	n := 2 + rng.Intn(10)
	pairs := make([]*mirrored, 0, n+3)
	for i := 0; i < n; i++ {
		tid := vclock.TID(i)*1024 + vclock.TID(rng.Intn(4))
		pairs = append(pairs, &mirrored{tid: tid, vc: VC{}, pk: sp.Clock(tid)})
	}
	threads := append([]*mirrored(nil), pairs...)
	for k := 0; k < 1+rng.Intn(3); k++ {
		pairs = append(pairs, &mirrored{tid: -1, vc: VC{}, pk: sp.Acc()})
	}
	accs := pairs[n:]

	check := func(m *mirrored, op string) {
		t.Helper()
		if got, want := m.pk.String(), m.vc.String(); got != want {
			t.Fatalf("seed %d after %s: packed %s, reference %s", seed, op, got, want)
		}
		if m.tid >= 0 {
			if got, want := m.pk.OwnV(), m.vc[m.tid]; got != want {
				t.Fatalf("seed %d after %s: own epoch %d, reference component %d", seed, op, got, want)
			}
		}
	}

	steps := 200 + rng.Intn(100)
	for s := 0; s < steps; s++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // tick a thread
			m := threads[rng.Intn(len(threads))]
			m.vc.Tick(m.tid)
			m.pk.Tick()
			check(m, "tick")
		case 4, 5: // full join between any two clocks
			a, b := pairs[rng.Intn(len(pairs))], pairs[rng.Intn(len(pairs))]
			if a == b {
				continue
			}
			a.vc.Join(b.vc)
			if rng.Intn(2) == 0 {
				a.pk.Join(b.pk)
			} else {
				a.pk.Join(b.pk.Snapshot())
			}
			check(a, "join")
		case 6, 7: // adopt-or-join from a published clock
			a, b := pairs[rng.Intn(len(pairs))], pairs[rng.Intn(len(pairs))]
			if a == b {
				continue
			}
			pub := b.pk.Publish()
			a.vc.Join(b.vc)
			if !a.pk.Adopt(pub) {
				a.pk.Join(pub)
			}
			check(a, "adopt")
			check(b, "publish")
		case 8: // accumulator absorbs a thread (barrier arrival)
			acc := accs[rng.Intn(len(accs))]
			m := threads[rng.Intn(len(threads))]
			acc.vc.Join(m.vc)
			if !acc.pk.Adopt(m.pk.Publish()) {
				acc.pk.Join(m.pk)
			}
			check(acc, "absorb")
		case 9: // thread absorbs an accumulator (barrier completion)
			acc := accs[rng.Intn(len(accs))]
			m := threads[rng.Intn(len(threads))]
			m.vc.Join(acc.vc)
			if !m.pk.Adopt(acc.pk.Publish()) {
				m.pk.Join(acc.pk)
			}
			check(m, "complete")
		}
		if s%25 == 0 || s == steps-1 {
			comparePairs(t, seed, s, pairs)
		}
	}
}

// comparePairs asserts every clock's components match the reference,
// and the witnesses agree for every ordered clock pair.
func comparePairs(t *testing.T, seed int64, step int, pairs []*mirrored) {
	t.Helper()
	for i, a := range pairs {
		if got, want := toVC(a.pk), a.vc; !maps.Equal(got, want) {
			t.Fatalf("seed %d step %d: clock %d diverged: packed %s, reference %s", seed, step, i, got, want)
		}
		// Unknown thread identities read as zero in both.
		if v := a.pk.Get(vclock.TID(1 << 40)); v != 0 {
			t.Fatalf("seed %d step %d: unknown TID reads %d", seed, step, v)
		}
		for j, b := range pairs {
			if i == j {
				continue
			}
			pt, pok := a.pk.ExceedsAt(b.pk)
			rt, rok := a.vc.ExceedsAt(b.vc)
			if pok != rok || (pok && pt != rt) {
				t.Fatalf("seed %d step %d: ExceedsAt(%d,%d): packed (%d,%v), reference (%d,%v)",
					seed, step, i, j, pt, pok, rt, rok)
			}
			pc, pcok := vclock.WhyConcurrent(a.pk, b.pk)
			rc, rcok := whyConcurrent(a.vc, b.vc)
			if pcok != rcok || pc != rc {
				t.Fatalf("seed %d step %d: certificate(%d,%d): packed (%+v,%v), reference (%+v,%v)",
					seed, step, i, j, pc, pcok, rc, rcok)
			}
			// The own-epoch shortcut must agree with the reference
			// component test (FastTrack consistency).
			if a.tid >= 0 {
				if got, want := a.pk.OwnV() <= b.pk.AtSlot(a.pk.OwnSlot()), a.vc[a.tid] <= b.vc[a.tid]; got != want {
					t.Fatalf("seed %d step %d: epoch Leq(%d,%d): packed %v, reference %v",
						seed, step, i, j, got, want)
				}
			}
		}
	}
}

// toPacked interns a reference clock into a space as an accumulator.
func toPacked(sp *vclock.Space, c VC) *vclock.Packed {
	p := sp.Acc()
	for t, v := range c {
		q := sp.Clock(t)
		for i := uint64(0); i < v; i++ {
			q.Tick()
		}
		p.Join(q)
	}
	return p
}

// randVC builds a small random reference clock.
func randVC(r *rand.Rand) VC {
	c := VC{}
	for n := r.Intn(5); n > 0; n-- {
		if v := uint64(r.Intn(4)); v != 0 {
			c[vclock.TID(r.Intn(4))] = v
		}
	}
	return c
}

// TestPropPackedAlgebraMatchesVC converts random reference clocks to
// packed form and checks they round-trip and agree on witnesses,
// certificates and rendering.
func TestPropPackedAlgebraMatchesVC(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		sp := vclock.NewSpace()
		a, b := randVC(r), randVC(r)
		pa, pb := toPacked(sp, a), toPacked(sp, b)
		if !maps.Equal(toVC(pa), a) || !maps.Equal(toVC(pb), b) {
			return false
		}
		pt, pok := pa.ExceedsAt(pb)
		rt, rok := a.ExceedsAt(b)
		if pok != rok || (pok && pt != rt) {
			return false
		}
		pc, pcok := vclock.WhyConcurrent(pa, pb)
		rc, rcok := whyConcurrent(a, b)
		if pcok != rcok || pc != rc {
			return false
		}
		return pa.String() == a.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
