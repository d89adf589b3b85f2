package replacement

import (
	"fmt"

	"ftbfs/internal/graph"
	"ftbfs/internal/paths"
)

// Pcons constructs the canonical new-ending replacement path for the
// uncovered pair ⟨v,e⟩ following Algorithm Pcons of the paper (Phase S0):
// among all shortest s–v paths in G\{e} it selects one whose unique
// divergence point from π(s,v) is as close to s as possible (Claim 4.4).
//
// Implementation: with π(s,v) = [u_0=s, …, u_k=v] and e = (u_i, u_{i+1}),
// one BFS rooted at v in G \ (V(π(s,v)) \ {v}) measures every candidate
// detour at once: δ_j = 1 + the least level of a neighbour of u_j reached
// without arc e is the length of the shortest u_j–v path that leaves
// π(s,v) at once and never returns before v. Every π(s,u_j) ◦ detour with
// j ≤ i avoids e, so j + δ_j ≥ target; and splitting any shortest
// replacement path at its last π-vertex before v shows that the least j
// with j + δ_j = target is the paper's divergence index j* (the least j for
// which G_j(v)\{e} still has an s–v path of length target, G_j(v) =
// G \ (V(π(u_j, u_k)) \ {u_j, u_k})). By Observation 3.2 the detour D(P)
// from d = u_{j*} avoids π(s,v) except at its endpoints; it is the
// canonical shortest d–v path in G minus V(π(s,v))\{d,v} rooted at v,
// walked back from d by min-index predecessors. Levels below δ_{j*} are the
// same with and without d in the graph, so the search, which bans d with
// the rest of π(s,v), holds every level that walk reads. Rooting detours of
// the same terminal in near-identical graphs realises the W-consistency
// that Claim 4.6 relies on.
//
// The search is goal-directed. d_s = dist(s,·) in G is a lower bound on
// every s–y distance in G\{e}, so a vertex y first reached at level L with
// d_s(y) + L > target lies on no replacement path of length target that
// reaches v from y in L steps. The search stops at such a y: it reads
// Unreachable and is not expanded (bfs.Scratch.Levels with lb = d_s,
// bound = target). Every level the construction reads is kept exact:
//   - a neighbour y of u_j has d_s(y) ≤ j+1 and is tested at level
//     target−j−1, so d_s(y) + level ≤ target;
//   - a neighbour y of the walk's vertex at step t−1 has d_s(y) ≤ j*+t,
//     since π(s,d) followed by the walk so far reaches it in that many
//     steps, and is tested at level target−j*−t.
//
// So exitAt sees exactly the vertices an unbounded search would show it and
// makes the same min-index choices. As s is banned and d_s ≥ 1 everywhere
// else, no kept level reaches target; the search needs no separate radius.
//
// target must equal dist(s,v,G\{e}) (finite), child the deeper endpoint
// of e.
func (en *Engine) Pcons(v int32, e graph.EdgeID, child int32, target int32) *Pair {
	k := int(en.T.Depth[v])
	pi := en.pi[:k+1] // π(s,v)
	for t, x := k, v; t >= 0; t-- {
		pi[t] = x
		x = en.BT.Parent[x]
	}
	i := int(en.T.Depth[child]) - 1 // e = (u_i, u_{i+1})
	if i < 0 || i >= k || pi[i+1] != child {
		panic(fmt.Sprintf("replacement: edge child %d (depth %d) not on π(s,%d)", child, en.T.Depth[child], v))
	}

	en.sc.Levels(en.csr, int(v), target, en.BT.Dist, pi[:k])
	// j* is the least j ≤ i whose detour length δ_j reaches target − j:
	// some neighbour of u_j sits at level target − j − 1.
	jstar := -1
	for j := 0; j <= i && jstar < 0; j++ {
		if en.exitAt(pi[j], e, target-int32(j)-1) >= 0 {
			jstar = j
		}
	}
	if jstar < 0 {
		panic(fmt.Sprintf("replacement: no unique-divergence replacement path for ⟨%d,%v⟩", v, en.G.EdgeByID(e)))
	}
	d := pi[jstar]

	// Detour: walk back from d towards the root v, one level per step.
	detour := make(paths.Path, target-int32(jstar)+1)
	detour[0] = d
	for t := 1; t < len(detour); t++ {
		next := en.exitAt(detour[t-1], e, int32(len(detour)-1-t))
		if next < 0 {
			panic(fmt.Sprintf("replacement: no detour from divergence point %d to %d", d, v))
		}
		detour[t] = next
	}
	if got := int32(jstar) + int32(detour.Len()); got != target || detour.Last() != v {
		panic(fmt.Sprintf("replacement: detour length %d + prefix %d != target %d (v=%d, e=%v)",
			detour.Len(), jstar, target, v, en.G.EdgeByID(e)))
	}

	last := detour.LastEdge()
	lastID := en.G.EdgeIDOf(int(last.U), int(last.V))
	if lastID == graph.NoEdge {
		panic("replacement: last edge not in G")
	}
	if en.TreeEdges.Contains(lastID) {
		panic(fmt.Sprintf("replacement: uncovered pair ⟨%d,%v⟩ produced a T0 last edge", v, en.G.EdgeByID(e)))
	}
	return &Pair{
		V:         v,
		Edge:      e,
		EdgeChild: child,
		Dist:      target,
		Div:       d,
		Detour:    detour,
		LastID:    lastID,
	}
}

// exitAt returns the smallest-id neighbour of x at the given level of the
// last bounded search, reached by an arc other than e, or -1 if none is.
func (en *Engine) exitAt(x int32, e graph.EdgeID, level int32) int32 {
	for _, a := range en.csr.ArcsOf(x) {
		if a.ID != e && en.sc.Level(a.To) == level {
			return a.To
		}
	}
	return -1
}

// FullPath reconstructs the complete replacement path π(s,Div)◦Detour.
func (en *Engine) FullPath(p *Pair) paths.Path {
	prefix := paths.Path(en.BT.PathTo(int(p.Div)))
	return paths.Concat(prefix, p.Detour)
}
