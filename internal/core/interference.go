package core

import (
	"sort"

	"ftbfs/internal/graph"
	"ftbfs/internal/replacement"
)

// pairIndex holds the uncovered pairs of Phase S0 together with a flat
// interference index for Phase S1 (Eq. 1 of the paper: two pairs interfere
// when their detours share a vertex internal to both).
//
// Every tree question Phase S1 asks is a preorder-interval test. A vertex x
// of T0 owns the interval [PreIndex[x], PreIndex[x]+Size[x]) of its
// subtree, so x is an ancestor-or-self of y iff that interval holds
// PreIndex[y], and two tree edges are related (e ∼ e') iff the intervals of
// their child endpoints overlap. The index therefore stores intervals, not
// vertices, in flat int32 arrays, one CSR-style backing array per field:
//
//   - per pair p: its terminal term[p] and the interval [lo[p], hi[p]) of
//     its failing edge's child endpoint;
//   - per pair p: the intervals [zLo[k], zHi[k]) of its interior detour
//     vertices z (the detour minus its endpoints), k ∈ [zOff[p], zOff[p+1]);
//     zLo[k] = PreIndex[z] also names z;
//   - per vertex, keyed by its preorder position x: the pairs whose detour
//     interior contains it, k ∈ [bvOff[x], bvOff[x+1]), with the partner's
//     term, lo and hi copied inline into bvTerm, bvLo, bvHi so an
//     interference scan reads one contiguous run per field.
//
// All of it, the classify marks included, lives in one allocation.
type pairIndex struct {
	en    *replacement.Engine
	pairs []*replacement.Pair

	term, lo, hi                      []int32 // per pair
	zOff, zLo, zHi                    []int32 // per pair: interior intervals
	bvOff, bvPair, bvTerm, bvLo, bvHi []int32 // per preorder position: containing pairs

	inSet  []int32 // iteration-stamped membership marks for classify
	isA    []int32 // stamped type-A marks for classify's second pass
	interf []int32 // stamped has-interference marks for classify
	seenT  []int32 // stamped per-terminal dedup marks, indexed by vertex
	stamp  int32

	ws *Workspace // scratch for the Phase S2 hot path; lazily created
}

// workspace returns the index's scratch workspace, creating one on first use.
// Batch builders install a long-lived per-worker workspace instead (see
// Options.Workspace) so repeated builds reuse the same buffers.
func (ix *pairIndex) workspace() *Workspace {
	if ix.ws == nil {
		ix.ws = NewWorkspace()
	}
	return ix.ws
}

// interior returns the detour vertices of p strictly between its endpoints.
func interior(p *replacement.Pair) []int32 {
	if len(p.Detour) <= 2 {
		return nil
	}
	return p.Detour[1 : len(p.Detour)-1]
}

func buildPairIndex(en *replacement.Engine, pairs []*replacement.Pair) *pairIndex {
	n, np := en.G.N(), len(pairs)
	t := en.T
	total := 0
	for _, p := range pairs {
		total += len(interior(p))
	}
	slab := make([]int32, 7*np+1+6*total+2*n+1)
	take := func(k int) []int32 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	ix := &pairIndex{en: en, pairs: pairs}
	ix.term, ix.lo, ix.hi = take(np), take(np), take(np)
	ix.zOff, ix.zLo, ix.zHi = take(np+1), take(total), take(total)
	ix.bvOff = take(n + 1)
	ix.bvPair, ix.bvTerm, ix.bvLo, ix.bvHi = take(total), take(total), take(total), take(total)
	ix.inSet, ix.isA, ix.interf = take(np), take(np), take(np)
	ix.seenT = take(n)

	k := 0
	for i, p := range pairs {
		ix.term[i] = p.V
		ix.lo[i] = t.PreIndex[p.EdgeChild]
		ix.hi[i] = ix.lo[i] + t.Size[p.EdgeChild]
		for _, z := range interior(p) {
			x := t.PreIndex[z]
			ix.zLo[k], ix.zHi[k] = x, x+t.Size[z]
			ix.bvOff[x+1]++
			k++
		}
		ix.zOff[i+1] = int32(k)
	}
	for x := 0; x < n; x++ {
		ix.bvOff[x+1] += ix.bvOff[x]
	}
	// Fill each vertex's run in pair order, borrowing seenT as the cursor.
	cur := ix.seenT
	copy(cur, ix.bvOff[:n])
	for i := range pairs {
		for _, x := range ix.zLo[ix.zOff[i]:ix.zOff[i+1]] {
			c := cur[x]
			ix.bvPair[c], ix.bvTerm[c], ix.bvLo[c], ix.bvHi[c] = int32(i), ix.term[i], ix.lo[i], ix.hi[i]
			cur[x]++
		}
	}
	clear(cur)
	return ix
}

// piIntersects reports whether the detour of pair i intersects
// π(LCA(v_i,t), t) \ {LCA}. The detour's endpoints lie on π(s,v_i) and its
// interior avoids it, so this holds iff some interior detour vertex is an
// ancestor of t: one interval test per interior vertex.
func (ix *pairIndex) piIntersects(i int32, t int32) bool {
	x := ix.en.T.PreIndex[t]
	lo, hi := ix.zOff[i], ix.zOff[i+1]
	zHi := ix.zHi[lo:hi]
	for k, zl := range ix.zLo[lo:hi] {
		if zl <= x && x < zHi[k] {
			return true
		}
	}
	return false
}

// splitI1I2 partitions all pairs into I1 (pairs with at least one
// (≁)-interference anywhere in UP) and the (∼)-set I2 = UP \ I1.
func (ix *pairIndex) splitI1I2() (i1, i2 []int32) {
	ix.stamp++
	all := ix.stamp
	for i := range ix.pairs {
		ix.inSet[i] = all
	}
	ix.stamp++ // a type-A stamp no pair carries
	for i := range ix.pairs {
		p := int32(i)
		if ix.hasNonSimInterference(p, all, ix.stamp) {
			i1 = append(i1, p)
		} else {
			i2 = append(i2, p)
		}
	}
	return i1, i2
}

// hasNonSimInterference reports whether pair p (≁)-interferes with a pair q
// of the current set: one with inSet[q] == inStamp and isA[q] != aStamp.
func (ix *pairIndex) hasNonSimInterference(p, inStamp, aStamp int32) bool {
	vp, lp, hp := ix.term[p], ix.lo[p], ix.hi[p]
	for _, x := range ix.zLo[ix.zOff[p]:ix.zOff[p+1]] {
		b, e := ix.bvOff[x], ix.bvOff[x+1]
		qs, ts, ls, hs := ix.bvPair[b:e], ix.bvTerm[b:e], ix.bvLo[b:e], ix.bvHi[b:e]
		for k, q := range qs {
			if ts[k] == vp || (lp < hs[k] && ls[k] < hp) {
				continue // same terminal (p itself included) or e ∼ e'
			}
			if ix.inSet[q] == inStamp && ix.isA[q] != aStamp {
				return true
			}
		}
	}
	return false
}

// classify splits the working set Pi into the paper's type A, B and C pairs
// (Eqs. 2–3), each returned in Pi order:
//
//	A: π-intersects a (≁)-interfering pair of Pi;
//	B: not A, and (≁)-interferes with another non-A pair of Pi;
//	C: everything else — a (∼)-set deferred to Phase S2 (Obs. 4.11).
//
// Both passes scan p's interior vertices and, per vertex, the inline
// term/lo/hi run of the pairs sharing it, so the terminal and e ∼ e' tests
// that reject most partners touch no per-pair array; only the survivors
// read their membership marks.
func (ix *pairIndex) classify(pi []int32) (a, b, c []int32) {
	// Three stamped mark sets replace the per-iteration maps: membership of
	// Pi, the type-A verdicts and the has-interference flags. Stamps only
	// ever grow, so marks from earlier iterations (or earlier builds sharing
	// this index) can never alias the current ones.
	ix.stamp++
	inStamp := ix.stamp
	for _, p := range pi {
		ix.inSet[p] = inStamp
	}
	aStamp := ix.stamp + 1
	interfStamp := ix.stamp + 2
	ix.stamp += 2
	for _, p := range pi {
		vp, lp, hp := ix.term[p], ix.lo[p], ix.hi[p]
		ix.stamp++
		tStamp := ix.stamp // per-pair dedup of examined terminals
		found, hit := false, false
	scanA:
		for _, x := range ix.zLo[ix.zOff[p]:ix.zOff[p+1]] {
			bs, be := ix.bvOff[x], ix.bvOff[x+1]
			qs, ts, ls, hs := ix.bvPair[bs:be], ix.bvTerm[bs:be], ix.bvLo[bs:be], ix.bvHi[bs:be]
			for k, q := range qs {
				t := ts[k]
				if t == vp || (lp < hs[k] && ls[k] < hp) || ix.inSet[q] != inStamp {
					continue
				}
				hit = true
				if ix.seenT[t] == tStamp {
					continue
				}
				ix.seenT[t] = tStamp
				if ix.piIntersects(p, t) {
					found = true
					break scanA
				}
			}
		}
		if hit {
			ix.interf[p] = interfStamp
		}
		if found {
			ix.isA[p] = aStamp
			a = append(a, p)
		}
	}
	// second pass: B needs an interfering partner that is itself non-A
	for _, p := range pi {
		if ix.isA[p] == aStamp {
			continue
		}
		if ix.interf[p] == interfStamp && ix.hasNonSimInterference(p, inStamp, aStamp) {
			b = append(b, p)
		} else {
			c = append(c, p)
		}
	}
	return a, b, c
}

// groupByTerminal buckets the given pairs by their terminal v and orders
// each bucket by increasing distance of the failing edge from v (deepest
// edges first) — the ordering −→P(v) of the paper. Terminals are returned
// in increasing id order for determinism.
func (ix *pairIndex) groupByTerminal(set []int32) (terminals []int32, buckets map[int32][]int32) {
	buckets = make(map[int32][]int32)
	for _, p := range set {
		v := ix.pairs[p].V
		if _, ok := buckets[v]; !ok {
			terminals = append(terminals, v)
		}
		buckets[v] = append(buckets[v], p)
	}
	sort.Slice(terminals, func(i, j int) bool { return terminals[i] < terminals[j] })
	t := ix.en.T
	for _, v := range terminals {
		b := buckets[v]
		sort.Slice(b, func(i, j int) bool {
			di := ix.pairs[b[i]].DistFromV(t)
			dj := ix.pairs[b[j]].DistFromV(t)
			if di != dj {
				return di < dj
			}
			return ix.pairs[b[i]].Edge < ix.pairs[b[j]].Edge
		})
	}
	return terminals, buckets
}

// lastEdgeOf returns the last-edge id of pair p.
func (ix *pairIndex) lastEdgeOf(p int32) graph.EdgeID { return ix.pairs[p].LastID }
