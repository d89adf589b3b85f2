package replacement

import (
	"fmt"
	"sync"
	"testing"

	"ftbfs/internal/bfs"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
	"ftbfs/internal/paths"
)

// refPcons is the binary-search formulation of Algorithm Pcons kept as a
// reference: probe(j) = dist(s, v, G_j(v)\{e}) is non-increasing in j, so
// the least j with probe(j) = target is found by binary search, and the
// detour is the canonical shortest d–v path in G minus V(π(s,v))\{d,v},
// found by a full BFS rooted at v and walked back from d.
func refPcons(en *Engine, v int32, e graph.EdgeID, child, target int32) (div int32, detour paths.Path, lastID graph.EdgeID) {
	g := en.G
	pi := en.BT.PathTo(int(v))
	k := len(pi) - 1
	i := int(en.T.Depth[child]) - 1
	sc := bfs.NewScratch(g.N())
	banned := graph.NewVertexSet(g.N())
	probe := func(j int) int32 {
		banned.Clear()
		for t := j + 1; t < k; t++ {
			banned.Add(pi[t])
		}
		return sc.DistAvoiding(g, en.S, int(v), bfs.Restriction{BannedEdge: e, BannedVertices: banned})
	}
	lo, hi := 0, i
	for lo < hi {
		mid := (lo + hi) / 2
		if probe(mid) == target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == i && probe(i) != target {
		panic("refPcons: no unique-divergence replacement path")
	}
	d := pi[lo]
	banned.Clear()
	for t := 0; t < k; t++ {
		if t != lo {
			banned.Add(pi[t])
		}
	}
	rev := refCanonicalPath(g, int(v), int(d), bfs.Restriction{BannedEdge: e, BannedVertices: banned})
	detour = paths.Path(rev).Reverse()
	last := detour.LastEdge()
	return d, detour, g.EdgeIDOf(int(last.U), int(last.V))
}

// refCanonicalPath returns the canonical shortest root–target path of g
// under r (BFS rooted at root, min-index predecessors walked back from
// target), starting at root, or nil if target is unreachable.
func refCanonicalPath(g *graph.Graph, root, target int, r bfs.Restriction) []int32 {
	dist := make([]int32, g.N())
	bfs.NewScratch(g.N()).DistancesAvoiding(g, root, r, dist)
	if dist[target] == bfs.Unreachable {
		return nil
	}
	path := make([]int32, dist[target]+1)
	x := int32(target)
	for i := len(path) - 1; i > 0; i-- {
		path[i] = x
		for _, a := range g.Neighbors(int(x)) {
			if a.ID == r.BannedEdge || r.BannedVertices.Contains(a.To) {
				continue
			}
			if dist[a.To] == dist[x]-1 {
				x = a.To
				break
			}
		}
	}
	path[0] = x
	return path
}

// TestPconsMatchesBinarySearchReference checks every uncovered pair's
// divergence point, detour and last edge against the binary-search
// reference on random graphs, grids and lower-bound instances.
func TestPconsMatchesBinarySearchReference(t *testing.T) {
	type instance struct {
		name    string
		g       *graph.Graph
		sources []int
	}
	var cases []instance
	for seed := int64(0); seed < 4; seed++ {
		cases = append(cases, instance{fmt.Sprintf("random/%d", seed), randomConnected(60, 90, seed), []int{0, 17, 41}})
	}
	cases = append(cases,
		instance{"grid9x11", gen.Grid(9, 11), []int{0, 49, 98}},
		instance{"grid12x12", gen.Grid(12, 12), []int{3*12 + 3, 8*12 + 9}},
	)
	for _, p := range [][3]int{{2, 4, 5}, {3, 4, 6}, {2, 6, 3}} {
		lb := gen.LowerBoundParams(p[0], p[1], p[2])
		cases = append(cases, instance{fmt.Sprintf("lowerbound%v", p), lb.G, []int{lb.S}})
	}
	for _, c := range cases {
		total := 0
		for _, s := range c.sources {
			en := NewEngine(c.g, s)
			for _, p := range en.AllPairs() {
				total++
				div, detour, lastID := refPcons(en, p.V, p.Edge, p.EdgeChild, p.Dist)
				if p.Div != div || p.LastID != lastID || fmt.Sprint(p.Detour) != fmt.Sprint(detour) {
					t.Fatalf("%s source %d pair ⟨%d,%v⟩: got div %d detour %v last %d, reference div %d detour %v last %d",
						c.name, s, p.V, c.g.EdgeByID(p.Edge), p.Div, p.Detour, p.LastID, div, detour, lastID)
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s: no uncovered pairs to compare", c.name)
		}
	}
}

// TestForEachFailureWithUnreachableComponent checks both failure sweeps,
// at several worker counts, against a full restricted BFS per failure on a
// graph whose second component the source never reaches.
func TestForEachFailureWithUnreachableComponent(t *testing.T) {
	const n1, n2 = 40, 12
	b := graph.NewBuilder(n1 + n2)
	base := randomConnected(n1, 55, 8)
	for _, e := range base.Edges() {
		b.Add(int(e.U), int(e.V))
	}
	for v := n1 + 1; v < n1+n2; v++ { // a cycle the source cannot reach
		b.Add(v-1, v)
	}
	b.Add(n1, n1+n2-1)
	g := b.Graph()
	sc := bfs.NewScratch(g.N())
	for _, s := range []int{0, 23} {
		en := NewEngine(g, s)
		want := map[graph.EdgeID][]int32{}
		for v := 0; v < g.N(); v++ {
			if id := en.BT.ParentEdge[v]; id != graph.NoEdge {
				want[id] = sc.DistancesAvoiding(g, s, bfs.Restriction{BannedEdge: id}, make([]int32, g.N()))
			}
		}
		check := func(label string, sweep func(fn func(graph.EdgeID, int32, []int32))) {
			var mu sync.Mutex
			seen := map[graph.EdgeID]bool{}
			sweep(func(e graph.EdgeID, child int32, distE []int32) {
				mu.Lock()
				defer mu.Unlock()
				w, ok := want[e]
				if !ok || seen[e] {
					t.Errorf("%s source %d: unexpected or repeated failure %v", label, s, g.EdgeByID(e))
					return
				}
				seen[e] = true
				for v := range w {
					if distE[v] != w[v] {
						t.Errorf("%s source %d, failure %v: dist[%d] = %d, want %d", label, s, g.EdgeByID(e), v, distE[v], w[v])
						return
					}
				}
			})
			if len(seen) != len(want) {
				t.Errorf("%s source %d: visited %d failures, want %d", label, s, len(seen), len(want))
			}
		}
		check("ForEachFailure", en.ForEachFailure)
		for _, w := range []int{1, 2, 4} {
			check(fmt.Sprintf("ForEachFailureParallel(%d)", w), func(fn func(graph.EdgeID, int32, []int32)) {
				en.ForEachFailureParallel(w, fn)
			})
		}
	}
}
