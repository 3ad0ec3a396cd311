package explore

// Mutation-candidate selection: given a record list, enumerate the
// operator families that apply and draw one concrete mutation. Every
// draw is made with the campaign's seeded RNG, so a campaign is
// deterministic for a fixed (seed schedule, config) pair.

import (
	"math/rand"
	"sort"

	"home/internal/chaos"
	"home/internal/sched"
)

// opFamily is one applicable operator family with its drawer.
type opFamily struct {
	op   string
	draw func(*rand.Rand) sched.Mutation
}

// pickMutation draws one mutation applicable to the record list, or
// reports that no operator applies (a schedule with no mutable
// decisions — nothing recorded worth perturbing).
func pickMutation(rng *rand.Rand, recs []sched.Record, threads int) (sched.Mutation, bool) {
	var (
		matchByRank = map[int][]sched.Key{}
		locks       []sched.Key
		singles     []sched.Key
		collGroups  = map[[2]int64][]sched.Key{}
		fails       []sched.Key
		sends       []sched.Key
		crashes     []sched.Key
		failKeys    = map[sched.Key]struct{}{}
	)
	for _, r := range recs {
		k := r.Key()
		switch r.Kind {
		case chaos.KindMatch:
			if r.SrcSeq > 0 {
				matchByRank[r.Rank] = append(matchByRank[r.Rank], k)
			}
		case chaos.KindLock:
			locks = append(locks, k)
		case chaos.KindSingle:
			singles = append(singles, k)
		case chaos.KindColl:
			g := [2]int64{int64(r.Comm1), r.CollSeq}
			collGroups[g] = append(collGroups[g], k)
		case chaos.KindFail:
			fails = append(fails, k)
			failKeys[k] = struct{}{}
		case chaos.KindSend:
			sends = append(sends, k)
		case chaos.KindCrash:
			crashes = append(crashes, k)
		}
	}

	var fams []opFamily
	var matchRanks []int
	for rank, ks := range matchByRank {
		if len(ks) >= 2 {
			matchRanks = append(matchRanks, rank)
		}
	}
	if len(matchRanks) > 0 {
		fams = append(fams, opFamily{sched.OpFlipMatch, func(rng *rand.Rand) sched.Mutation {
			ks := matchByRank[matchRanks[rng.Intn(len(matchRanks))]]
			i, j := pair(rng, len(ks))
			return sched.Mutation{Op: sched.OpFlipMatch, A: ks[i], B: ks[j]}
		}})
	}
	if len(locks) >= 2 {
		fams = append(fams, opFamily{sched.OpSwapLocks, func(rng *rand.Rand) sched.Mutation {
			i, j := pair(rng, len(locks))
			return sched.Mutation{Op: sched.OpSwapLocks, A: locks[i], B: locks[j]}
		}})
	}
	if len(singles) > 0 && threads >= 2 {
		fams = append(fams, opFamily{sched.OpReassignSingle, func(rng *rand.Rand) sched.Mutation {
			k := singles[rng.Intn(len(singles))]
			tid := rng.Intn(threads - 1)
			if tid >= k.TID {
				tid++ // uniform over the other threads
			}
			return sched.Mutation{Op: sched.OpReassignSingle, A: k, Arg: tid}
		}})
	}
	var collPairs [][2]int64
	for g, ks := range collGroups {
		if len(ks) >= 2 {
			collPairs = append(collPairs, g)
		}
	}
	if len(collPairs) > 0 {
		fams = append(fams, opFamily{sched.OpPermuteColl, func(rng *rand.Rand) sched.Mutation {
			ks := collGroups[collPairs[rng.Intn(len(collPairs))]]
			i, j := pair(rng, len(ks))
			return sched.Mutation{Op: sched.OpPermuteColl, A: ks[i], B: ks[j]}
		}})
	}
	// crash-later targets any fail record (defer one observation) or a
	// crash record (revive the rank — its death is erased everywhere).
	later := append(append([]sched.Key{}, fails...), crashes...)
	if len(later) > 0 {
		fams = append(fams, opFamily{sched.OpCrashLater, func(rng *rand.Rand) sched.Mutation {
			return sched.Mutation{Op: sched.OpCrashLater, A: later[rng.Intn(len(later))]}
		}})
	}
	var earlier []sched.Key
	for _, k := range fails {
		prev := k
		prev.Seq--
		if _, taken := failKeys[prev]; k.Seq >= 2 && !taken {
			earlier = append(earlier, k)
		}
	}
	if len(earlier) > 0 {
		fams = append(fams, opFamily{sched.OpCrashEarlier, func(rng *rand.Rand) sched.Mutation {
			return sched.Mutation{Op: sched.OpCrashEarlier, A: earlier[rng.Intn(len(earlier))]}
		}})
	}
	if len(sends) > 0 {
		fams = append(fams, opFamily{sched.OpToggleSend, func(rng *rand.Rand) sched.Mutation {
			return sched.Mutation{Op: sched.OpToggleSend, A: sends[rng.Intn(len(sends))]}
		}})
	}

	if len(fams) == 0 {
		return sched.Mutation{}, false
	}
	// Map iteration order is random: keep the draw deterministic by
	// sorting the collected group keys before any index is drawn.
	sort.Ints(matchRanks)
	sort.Slice(collPairs, func(i, j int) bool {
		if collPairs[i][0] != collPairs[j][0] {
			return collPairs[i][0] < collPairs[j][0]
		}
		return collPairs[i][1] < collPairs[j][1]
	})
	fam := fams[rng.Intn(len(fams))]
	return fam.draw(rng), true
}

// pair draws two distinct indices in [0, n).
func pair(rng *rand.Rand, n int) (int, int) {
	i := rng.Intn(n)
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}
