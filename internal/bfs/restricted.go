package bfs

import (
	"ftbfs/internal/graph"
)

// Restriction describes the part of G excluded from a search: at most one
// banned edge (the failing edge e), an optional banned-vertex set (the
// removed path interiors of the graphs G_j(v) in Algorithm Pcons), and an
// optional whitelist of edges (searching inside a structure H ⊆ G).
// A nil BannedVertices means no vertex is banned; a nil AllowedEdges means
// every edge of G may be used; BannedEdge may be graph.NoEdge.
type Restriction struct {
	BannedEdge     graph.EdgeID
	BannedVertices *graph.VertexSet
	AllowedEdges   *graph.EdgeSet
}

// blocks reports whether the restriction forbids traversing arc a into a.To.
func (r Restriction) blocks(a graph.Arc) bool {
	if a.ID == r.BannedEdge {
		return true
	}
	if r.AllowedEdges != nil && !r.AllowedEdges.Contains(a.ID) {
		return true
	}
	return r.BannedVertices != nil && r.BannedVertices.Contains(a.To)
}

// Scratch holds reusable buffers for repeated restricted searches, avoiding
// per-call allocation in the hot loops of the replacement-path engine.
// A Scratch is not safe for concurrent use.
type Scratch struct {
	dist  []int32
	queue []int32
	epoch []int32
	cur   int32
}

// NewScratch returns scratch buffers for graphs with n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{
		dist:  make([]int32, n),
		queue: make([]int32, 0, n),
		epoch: make([]int32, n),
	}
}

func (sc *Scratch) reset() {
	sc.cur++
	sc.queue = sc.queue[:0]
}

func (sc *Scratch) seen(v int32) bool { return sc.epoch[v] == sc.cur }

func (sc *Scratch) set(v, d int32) {
	sc.epoch[v] = sc.cur
	sc.dist[v] = d
}

// DistancesAvoiding runs BFS from s under the restriction and writes
// distances into out (len must be g.N()); unreachable and banned vertices get
// Unreachable. It returns out for chaining.
func (sc *Scratch) DistancesAvoiding(g *graph.Graph, s int, r Restriction, out []int32) []int32 {
	sc.reset()
	if r.BannedVertices == nil || !r.BannedVertices.Contains(int32(s)) {
		sc.set(int32(s), 0)
		sc.queue = append(sc.queue, int32(s))
	}
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		for _, a := range g.Neighbors(int(u)) {
			if sc.seen(a.To) || r.blocks(a) {
				continue
			}
			sc.set(a.To, sc.dist[u]+1)
			sc.queue = append(sc.queue, a.To)
		}
	}
	for v := range out {
		if sc.seen(int32(v)) {
			out[v] = sc.dist[v]
		} else {
			out[v] = Unreachable
		}
	}
	return out
}

// DistAvoiding returns dist(s, target, G under restriction), or Unreachable.
// It early-exits as soon as the target is settled. A banned source reaches
// nothing, itself included, exactly as in DistancesAvoiding.
func (sc *Scratch) DistAvoiding(g *graph.Graph, s, target int, r Restriction) int32 {
	if r.BannedVertices != nil && r.BannedVertices.Contains(int32(s)) {
		return Unreachable
	}
	if s == target {
		return 0
	}
	sc.reset()
	sc.set(int32(s), 0)
	sc.queue = append(sc.queue, int32(s))
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		for _, a := range g.Neighbors(int(u)) {
			if sc.seen(a.To) || r.blocks(a) {
				continue
			}
			if a.To == int32(target) {
				return sc.dist[u] + 1
			}
			sc.set(a.To, sc.dist[u]+1)
			sc.queue = append(sc.queue, a.To)
		}
	}
	return Unreachable
}

// Levels runs a BFS from root over c that never enters a vertex of banned
// and prunes by a lower bound: a vertex y first reached at level L with
// lb[y] + L > bound is stamped Unreachable and never expanded. Afterwards
// Level reports, for every vertex y with lb[y] + dist(root, y) ≤ bound, its
// distance from root in c minus banned, and Unreachable for every other
// vertex. Banned vertices are stamped up front, so the search itself needs
// no membership test. root must not be in banned.
//
// The pruning is exact when lb changes by at most one along every arc
// (lb[x] ≤ lb[y] + 1 for an arc x–y), as distances from a fixed vertex do.
// By induction on the level: a vertex y with lb[y] + dist(root, y) ≤ bound
// has a predecessor x one level up with lb[x] + dist(root, x) ≤ bound, so x
// is settled at its true level and expanded, and y is first reached at
// dist(root, y) and kept. A vertex reached only above its true level would
// have been kept at that level had it met the bound there, so it fails the
// bound at both levels and is pruned.
func (sc *Scratch) Levels(c *graph.CSR, root int, bound int32, lb, banned []int32) {
	sc.reset()
	for _, x := range banned {
		sc.set(x, Unreachable)
	}
	if lb[root] > bound {
		sc.set(int32(root), Unreachable)
		return
	}
	sc.set(int32(root), 0)
	sc.queue = append(sc.queue, int32(root))
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		next := sc.dist[u] + 1
		for _, a := range c.ArcsOf(u) {
			if sc.seen(a.To) {
				continue
			}
			if lb[a.To]+next > bound {
				sc.set(a.To, Unreachable)
				continue
			}
			sc.set(a.To, next)
			sc.queue = append(sc.queue, a.To)
		}
	}
}

// Level returns the level of v found by the last Levels call, or
// Unreachable for banned vertices and vertices pruned by its bound.
func (sc *Scratch) Level(v int32) int32 {
	if !sc.seen(v) {
		return Unreachable
	}
	return sc.dist[v]
}
