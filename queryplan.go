package ftbfs

import (
	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
	"ftbfs/internal/tree"
)

// QueryPlan is the precomputed serving view of a structure, for either
// failure model: H materialized as its own flat CSR adjacency, the intact
// distance vector, and the canonical BFS tree of H with preorder subtree
// intervals. Together they make failure queries sublinear in practice. A
// single failure can only change distances inside one subtree of H's BFS
// tree:
//
//   - a failed edge that is not a tree edge of H's BFS tree (including
//     every edge outside H) has no such subtree — the tree survives, so
//     every vertex keeps its intact distance; a failed tree edge affects
//     the subtree hanging below it.
//   - a failed vertex w affects only its strict descendants: a target off
//     w's subtree (every target when w is a leaf or unreachable in H) keeps
//     its tree path.
//
// A target outside the affected subtree answers in O(1) from the cached
// vector, no search at all. A target inside it reads one resumable repair
// search (bfs.Repair) that seeds the subtree from the intact-distance
// frontier crossing into it, with the failed edge or every arc of the failed
// vertex banned, relaxes only the subtree's own H-arcs, and stops once the
// target settles: the cost is at most the arcs of the subtree vertices at
// levels ≤ the answer, O(Σ deg_H(subtree)) for a disconnected target,
// instead of a full O(|E(H)|) restricted BFS over G. Later targets of the
// same failure resume the run.
//
// Because H's BFS-tree parents follow the same canonical min-index rule as
// the reference search, every plan answer equals Oracle.DistAvoidingRef
// (or DistAvoidingVertexRef) exactly; the randomized differential tests
// assert this failure for failure.
//
// A QueryPlan is immutable and safe for concurrent use; the per-query
// repair scratch lives in the Oracle that uses the plan.
type QueryPlan struct {
	h      *graph.CSR // H's own adjacency; scans touch no non-H arc
	intact []int32    // dist(s, ·) in the intact H, shared with the structure
	t      *tree.Tree // canonical BFS tree of H with subtree intervals
	vertex bool       // failures are vertices, not edges

	// root maps a failure — an EdgeID in the edge model, a vertex in the
	// vertex model — to the root of the only subtree it can change: the
	// deeper endpoint of a tree edge, the failed vertex itself when it has
	// descendants, and -1 for every failure that changes no distance (a
	// non-tree edge, a leaf, a vertex unreachable in H).
	root []int32
}

// newQueryPlan is the one constructor of a query plan: h is H's CSR over
// base graph g, intact its distance vector and bt its canonical BFS tree.
// A fresh structure derives bt by searching h; a slab record carries it.
func newQueryPlan(g *graph.Graph, h *graph.CSR, intact []int32, bt *bfs.Tree, vertex bool) *QueryPlan {
	p := &QueryPlan{h: h, intact: intact, t: tree.BuildAncestry(g.N(), bt), vertex: vertex}
	if vertex {
		p.root = make([]int32, g.N())
		for w, size := range p.t.Size {
			p.root[w] = -1
			if size > 1 {
				p.root[w] = int32(w)
			}
		}
		return p
	}
	p.root = make([]int32, g.M())
	for id := range p.root {
		p.root[id] = -1
	}
	for _, v := range bt.Order {
		if id := bt.ParentEdge[v]; id != graph.NoEdge {
			p.root[id] = v
		}
	}
	return p
}

// Plan returns the structure's query plan, building it on the first call
// (one CSR extraction, one search over it and the ancestry passes) and
// caching it forever — structures are immutable once built.
func (s *serving) Plan() *QueryPlan {
	s.planOnce.Do(func() {
		h := s.g.SubgraphCSR(s.edges)
		s.qplan = newQueryPlan(s.g, h, s.intactDistances(), bfs.FromCSR(h, s.src), s.vertex)
	})
	return s.qplan
}

// IsTreeEdge reports whether {u,v} is a tree edge of H's canonical BFS tree
// — the only kind of edge failure that forces a repair search; all others
// answer in O(1).
func (p *QueryPlan) IsTreeEdge(u, v int) bool { return p.treeChild(u, v) >= 0 }

// SubtreeSize returns the number of vertices a failure of edge {u,v} can
// affect: the size of the subtree below the edge for tree edges, 0
// otherwise. It is the work bound of the repair search and useful for
// admission control.
func (p *QueryPlan) SubtreeSize(u, v int) int {
	c := p.treeChild(u, v)
	if c < 0 {
		return 0
	}
	return int(p.t.Size[c])
}

// OnTreePath reports whether vertex w lies on the tree path π(s, v) of H's
// canonical BFS tree, strictly between s and v — the only kind of vertex
// failure that forces a repair search for target v; all others answer in
// O(1).
func (p *QueryPlan) OnTreePath(w, v int) bool {
	if w < 0 || v < 0 || w >= p.h.N() || v >= p.h.N() || w == v {
		return false
	}
	return p.t.InSubtree(int32(v), int32(w)) && int32(w) != p.t.Root
}

// SubtreeSizeVertex returns the number of vertices a failure of vertex w
// can affect: its strict descendants in H's BFS tree, 0 for leaves and
// vertices unreachable in H. It is the vertex model's SubtreeSize.
func (p *QueryPlan) SubtreeSizeVertex(w int) int {
	if w < 0 || w >= p.h.N() || p.t.PreIndex[w] < 0 {
		return 0
	}
	return int(p.t.Size[w]) - 1
}

// treeChild returns the deeper endpoint of {u,v} when it is a tree edge of
// H's BFS tree, else -1. The CSR has no endpoint lookup, so it scans u's
// (H-only) row: classification is diagnostics, not a hot path.
func (p *QueryPlan) treeChild(u, v int) int32 {
	if u < 0 || v < 0 || u >= p.h.N() || v >= p.h.N() {
		return -1
	}
	for _, a := range p.h.ArcsOf(int32(u)) {
		if a.To != int32(v) {
			continue
		}
		switch a.ID {
		case p.t.ParentEdge[v]:
			return int32(v)
		case p.t.ParentEdge[u]:
			return int32(u)
		}
		return -1
	}
	return -1
}

// dist answers dist(source, v) in H minus failure f — a validated EdgeID in
// the edge model, a validated vertex in the vertex model — using the plan's
// O(1) path, falling back to r for the subtree repair. The caller owns r and
// guarantees repaired is the failure r last ran for (-1 for none); dist
// returns the failure the scratch holds afterwards, so consecutive queries
// of one failure — the shape of a grouped batch — share one run, each
// resuming it only as far as its own target needs. viaRepair reports
// whether the answer came out of the repair scratch (telemetry counts plan
// hits vs repairs without re-deriving the branch).
func (p *QueryPlan) dist(v int, f int32, r *bfs.Repair, repaired int32) (d int32, _ int32, viaRepair bool) {
	if p.vertex && int32(v) == f {
		// The target itself left the graph.
		return bfs.Unreachable, repaired, false
	}
	c := p.root[f]
	if c < 0 || !p.t.InSubtree(int32(v), c) {
		// v hangs outside the only subtree the failure can change: its tree
		// path avoids the failure.
		return p.intact[v], repaired, false
	}
	if f != repaired {
		banned := graph.EdgeID(f)
		if p.vertex {
			banned = graph.NoEdge // the subtree root w itself failed
		}
		r.Run(p.h, p.intact, p.t.Preorder(), c, banned)
		repaired = f
	}
	return r.Dist(int32(v)), repaired, true
}
