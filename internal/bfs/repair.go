package bfs

import (
	"math"

	"ftbfs/internal/graph"
)

// Preorder is the subtree-interval view of a rooted BFS tree that Repair
// walks: the subtree of v is Order[Index[v] : Index[v]+Size[v]], v first,
// so v's first child is Order[Index[v]+1] and a child c's next sibling is
// Order[Index[c]+Size[c]]. tree.Tree provides it (bfs cannot import tree).
type Preorder struct {
	Order []int32 // reachable vertices in DFS preorder
	Index []int32 // position of each vertex in Order; -1 if unreachable
	Size  []int32 // subtree sizes
}

// Repair answers BFS distances after one failure of H's BFS tree — a tree
// edge e = (p, c), or a tree vertex w — touching only the failed subtree,
// and only as deep as the questions asked of it. Every vertex outside the
// subtree of c (or outside w's strict descendants) keeps its intact
// distance, because its tree path avoids the failure, so for x inside
//
//	dist'(x) = min( min_{u outside, {u,y} ∈ H\{f}, y inside} intact(u) + 1 + dist_sub(y, x) )
//
// where the inner walk stays inside the subtree (any shortest path in
// H\{f}, cut at its LAST entry into the subtree, has exactly this shape).
// Repair solves it as a multi-seed BFS over a bucket queue of distance
// levels, lazily: Run only records the failure and the subtree root,
// Dist(x) drains levels in increasing order and stops the moment x
// settles, and a later Dist resumes from the state the earlier one left.
// The subtree is walked in level order from its root, and a vertex is
// seeded with its best entering arc from outside only when the drain
// reaches its intact level. That is exact:
//
//   - across any H-arc {u, y}, |intact(u) − intact(y)| ≤ 1, so y's seed is
//     at least intact(y) (and at most intact(y)+2);
//   - H\{f} ⊆ H, so dist'(y) ≥ intact(y): no search path reaches y below
//     its intact level either;
//   - tree children sit one intact level below their parent, so the walk's
//     frontier is exactly the subtree's vertices at the level being drained.
//
// So when level L drains, every vertex that could hold a seed ≤ L is
// already seeded, and level L settles exactly as in an eager search. The
// walk also stops below a vertex that settles at its intact level: the tree
// edges under it survive the failure, so relaxation down them settles each
// of its descendants at its intact level, which no seed can beat. Seeds
// land at most two levels above the frontier and relaxations one, so the
// pending levels always fit a ring of three buckets. Answering x costs at
// most the arcs of the subtree vertices whose intact level is at most
// dist'(x); only an unreachable x can drain the whole subtree,
// O(Σ_{y ∈ subtree} deg_H(y)), against the O(|E(H)|) of a from-scratch
// search.
//
// A Repair is not safe for concurrent use; pool it alongside the oracle
// that owns it.
type Repair struct {
	// The current run: H's CSR and intact distances, the tree, the failed
	// subtree pre.Order[lo : lo+size] and the banned edge (graph.NoEdge
	// for a vertex failure).
	h        *graph.CSR
	intact   []int32
	pre      *Preorder
	lo, size int32
	banned   graph.EdgeID

	settled []int32 // epoch stamp: dist[v] is final for the current run
	dist    []int32
	epoch   int32

	// The search state a later Dist resumes from. The slices are only ever
	// appended to and cut back in place, never swapped: a slice header
	// store costs a GC write barrier, and these change on every level.
	level int32      // the level being drained
	walk  [2][]int32 // walk[side]: the subtree vertices at intact level `level`
	side  int
	ring  [3][]int32 // ring[(base+k)%3]: pending vertices at level level+k
	base  int32
	head  int // ring[base][:head] is drained; -1 until walk[side] is seeded
}

// NewRepair returns a repair scratch for graphs with n vertices.
func NewRepair(n int) *Repair {
	return &Repair{
		settled: make([]int32, n),
		dist:    make([]int32, n),
	}
}

// Run starts a repair of dist(s, ·) in H minus one failure, where h is the
// CSR adjacency of H, intact[u] the intact distance of every u and pre the
// preorder view of the BFS tree of H those distances come from. The
// failure is the tree edge bannedEdge entering root, or, when bannedEdge is
// graph.NoEdge, the vertex root itself, which leaves the graph with every
// incident arc. No search happens here: Dist does the work its answer
// needs, and the run stays readable until the next Run.
func (r *Repair) Run(h *graph.CSR, intact []int32, pre *Preorder, root int32, bannedEdge graph.EdgeID) {
	r.nextEpoch()
	r.h, r.intact, r.pre, r.banned = h, intact, pre, bannedEdge
	r.lo, r.size = pre.Index[root], pre.Size[root]
	for i := range r.ring {
		r.ring[i] = r.ring[i][:0]
	}
	r.walk[0] = r.walk[0][:0]
	r.head, r.side, r.base = -1, 0, 0
	if bannedEdge != graph.NoEdge {
		r.walk[0] = append(r.walk[0], root)
		r.level = intact[root]
		return
	}
	// The failed vertex lies inside the subtree interval, so no seed comes
	// from it; settling it as Unreachable keeps relaxations out, and the
	// walk starts at its children.
	r.settled[root], r.dist[root] = r.epoch, Unreachable
	r.walkChildren(0, root)
	r.level = intact[root] + 1
}

// Dist returns dist(s, v) in H minus the failure of the last Run, draining
// only the levels up to v's answer. A vertex outside the failed subtree
// keeps its intact distance; one the failure disconnects is Unreachable.
func (r *Repair) Dist(v int32) int32 {
	if !r.inside(v) {
		return r.intact[v]
	}
	if r.settled[v] != r.epoch {
		r.drain(v)
		if r.settled[v] != r.epoch {
			return Unreachable
		}
	}
	return r.dist[v]
}

// Finish runs the search to the end, so every Dist after it is a plain
// read. A caller that reads the whole subtree saves the stop and resume
// that each of its Dist calls would make.
func (r *Repair) Finish() { r.drain(-1) }

// inside reports whether v lies in the failed subtree (the failed vertex
// included), by the preorder-interval test; unreachable vertices have
// index -1 and fall outside.
func (r *Repair) inside(v int32) bool {
	return uint32(r.pre.Index[v]-r.lo) < uint32(r.size)
}

// walkChildren appends v's tree children to walk[side], hopping over each
// child's subtree in preorder.
func (r *Repair) walkChildren(side int, v int32) {
	order, size := r.pre.Order, r.pre.Size
	i := r.pre.Index[v]
	for j, end := i+1, i+size[v]; j < end; j += size[order[j]] {
		r.walk[side] = append(r.walk[side], order[j])
	}
}

// drain runs the search level by level until target settles (never, for
// target -1) or the run is exhausted: the walk is done and no level is
// pending. A level takes three passes: seed the walk's frontier, settle the
// level's bucket, and walk on below the frontier. Settling stops the moment
// target settles, and a later Dist resumes mid-level from r.head.
func (r *Repair) drain(target int32) {
	rows, arcs, intact, banned := r.h.RowStart, r.h.Arcs, r.intact, r.banned
	index, lo, n := r.pre.Index, r.lo, uint32(r.size)
	settled, dist, epoch := r.settled, r.dist, r.epoch
	for target < 0 || settled[target] != epoch {
		level, front := r.level, r.walk[r.side]
		if r.head < 0 {
			if len(front)+len(r.ring[0])+len(r.ring[1])+len(r.ring[2]) == 0 {
				return
			}
			// Seed the frontier, the subtree vertices at intact level
			// `level`, with their best entering arcs from outside; a seed
			// lands within [level, level+2]. The banned edge is the one
			// tree arc entering the subtree root, and a failed vertex sits
			// inside the subtree: skipping both here is the only place the
			// failure shows up, since the relaxation below stays inside.
			for _, v := range front {
				best := int32(math.MaxInt32 - 1) // no seed: every arc stays inside
				for _, a := range arcs[rows[v]:rows[v+1]] {
					if a.ID != banned && uint32(index[a.To]-lo) >= n && intact[a.To] < best {
						if best = intact[a.To]; best < level {
							break // a neighbour one level up: the lowest seed there is
						}
					}
				}
				if k := best + 1 - level; uint32(k) < 3 {
					if k += r.base; k >= 3 {
						k -= 3
					}
					r.ring[k] = append(r.ring[k], v)
				}
			}
			r.head = 0
		}
		// Settle the level: a unit-weight Dijkstra where each pop settles a
		// vertex or discards a superseded entry, and relaxations stay
		// inside the subtree, one level up.
		c, u := r.base, r.base+1
		if u == 3 {
			u = 0
		}
		cur, up := r.ring[c], r.ring[u]
		for r.head < len(cur) {
			v := cur[r.head]
			r.head++
			if settled[v] == epoch {
				continue
			}
			settled[v], dist[v] = epoch, level
			for _, a := range arcs[rows[v]:rows[v+1]] {
				if uint32(index[a.To]-lo) < n && settled[a.To] != epoch {
					up = append(up, a.To)
				}
			}
			if v == target {
				keep(&r.ring[u], up)
				return
			}
		}
		keep(&r.ring[u], up)
		r.ring[c] = r.ring[c][:0]
		r.level, r.head, r.base = level+1, -1, u
		// Walk on below the frontier vertices the failure moved. One that
		// settled at its intact level keeps its whole subtree intact, since
		// the tree edges below it survive, and relaxation down those edges
		// settles every descendant at its intact level without a seed.
		next := r.side ^ 1
		r.walk[next] = r.walk[next][:0]
		for _, v := range front {
			if settled[v] != epoch {
				r.walkChildren(next, v)
			}
		}
		r.side = next
	}
}

// keep stores b, grown by appends from a copy of *dst, back into *dst,
// writing only the length while the backing array stays (see Repair).
func keep(dst *[]int32, b []int32) {
	if cap(b) == cap(*dst) {
		*dst = (*dst)[:len(b)]
		return
	}
	*dst = b
}

// nextEpoch advances the stamp, resetting the array on the (practically
// unreachable) wrap so a long-lived server never confuses stamps.
func (r *Repair) nextEpoch() {
	if r.epoch == math.MaxInt32 {
		clear(r.settled)
		r.epoch = 0
	}
	r.epoch++
}
