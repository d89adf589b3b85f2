package bfs

import (
	"math/rand"
	"slices"
	"testing"

	"ftbfs/internal/graph"
)

func randomConnected(t *testing.T, n, extra int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 1; i < n; i++ {
		if _, err := g.AddEdge(i, rng.Intn(i)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g.Freeze()
}

func TestFromCSRMatchesFrom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomConnected(t, 80, 120, seed)
		want := From(g, 0)
		got := FromCSR(g.SubgraphCSR(nil), 0)
		for v := 0; v < g.N(); v++ {
			if got.Dist[v] != want.Dist[v] {
				t.Fatalf("seed %d: Dist[%d] = %d, want %d", seed, v, got.Dist[v], want.Dist[v])
			}
			if got.Parent[v] != want.Parent[v] || got.ParentEdge[v] != want.ParentEdge[v] {
				t.Fatalf("seed %d: parent of %d: (%d,%d), want (%d,%d)", seed, v,
					got.Parent[v], got.ParentEdge[v], want.Parent[v], want.ParentEdge[v])
			}
		}
	}
}

// subtreeOf collects the vertices whose canonical tree path passes through
// c — the brute-force definition the repair search's preorder interval must
// agree with.
func subtreeOf(bt *Tree, c int32) []int32 {
	var sub []int32
	for v := int32(0); int(v) < len(bt.Dist); v++ {
		if bt.Dist[v] == Unreachable {
			continue
		}
		for x := v; x >= 0; x = bt.Parent[x] {
			if x == c {
				sub = append(sub, v)
				break
			}
		}
	}
	return sub
}

// preorderOf derives the preorder view Repair walks from a BFS tree by an
// explicit depth-first search, independent of package tree's tour.
func preorderOf(bt *Tree) Preorder {
	n := len(bt.Dist)
	children := make([][]int32, n)
	for _, v := range bt.Order {
		if p := bt.Parent[v]; p >= 0 {
			children[p] = append(children[p], v)
		}
	}
	pre := Preorder{Index: make([]int32, n), Size: make([]int32, n)}
	for v := range pre.Index {
		pre.Index[v] = -1
	}
	var visit func(v int32)
	visit = func(v int32) {
		pre.Index[v] = int32(len(pre.Order))
		pre.Order = append(pre.Order, v)
		for _, c := range children[v] {
			visit(c)
		}
		pre.Size[v] = int32(len(pre.Order)) - pre.Index[v]
	}
	visit(bt.Source)
	return pre
}

// TestRepairMatchesFullSearch fails every tree edge of random graphs and
// checks the subtree-local repair against a from-scratch restricted BFS.
func TestRepairMatchesFullSearch(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		extra := int(seed) * 20 // seed 0: a tree, where every failure disconnects
		g := randomConnected(t, 60, extra, seed)
		csr := g.SubgraphCSR(nil)
		bt := From(g, 0)
		pre := preorderOf(bt)
		r := NewRepair(g.N())
		sc := NewScratch(g.N())
		want := make([]int32, g.N())
		for v := int32(1); int(v) < g.N(); v++ {
			id := bt.ParentEdge[v]
			if id == graph.NoEdge {
				continue
			}
			sub := subtreeOf(bt, v)
			r.Run(csr, bt.Dist, &pre, v, id)
			sc.DistancesAvoiding(g, 0, Restriction{BannedEdge: id}, want)
			for _, w := range sub {
				if got := r.Dist(w); got != want[w] {
					t.Fatalf("seed %d, failed edge %d (child %d): dist[%d] = %d, want %d",
						seed, id, v, w, got, want[w])
				}
			}
		}
	}
}

// TestRepairScratchReuse runs two repairs back to back and checks the second
// is not polluted by the first (epoch stamping, bucket reset).
func TestRepairScratchReuse(t *testing.T) {
	g := randomConnected(t, 50, 40, 7)
	csr := g.SubgraphCSR(nil)
	bt := From(g, 0)
	pre := preorderOf(bt)
	r := NewRepair(g.N())
	sc := NewScratch(g.N())
	want := make([]int32, g.N())
	var treeChildren []int32
	for v := int32(1); int(v) < g.N(); v++ {
		if bt.ParentEdge[v] != graph.NoEdge {
			treeChildren = append(treeChildren, v)
		}
	}
	for round := 0; round < 3; round++ {
		for _, c := range treeChildren {
			id := bt.ParentEdge[c]
			sub := subtreeOf(bt, c)
			r.Run(csr, bt.Dist, &pre, c, id)
			sc.DistancesAvoiding(g, 0, Restriction{BannedEdge: id}, want)
			for _, w := range sub {
				if got := r.Dist(w); got != want[w] {
					t.Fatalf("round %d, child %d: dist[%d] = %d, want %d", round, c, w, got, want[w])
				}
			}
		}
	}
}

// TestRepairPartialRunsMatchFullSearch reads resumable runs the way a
// query batch does — a subset of the failed subtree in an awkward order —
// and checks every answer against a from-scratch restricted BFS, for edge
// and vertex failures. The reading orders cycle through: a random subset
// in random order; deepest first, then shallow; disconnected vertices
// first; and a run abandoned after its first answer, whose successor must
// not see its half-drained state. Random vertices, most of them outside
// the subtree, which must read their intact distance, are mixed in. Bare
// trees (extra = 0) make every failure disconnect its whole subtree.
func TestRepairPartialRunsMatchFullSearch(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		extra := []int{0, 10, 40, 120}[seed%4]
		g := randomConnected(t, 70, extra, seed)
		csr := g.SubgraphCSR(nil)
		bt := From(g, 0)
		pre := preorderOf(bt)
		r := NewRepair(g.N())
		sc := NewScratch(g.N())
		want := make([]int32, g.N())
		banned := graph.NewVertexSet(g.N())
		run := 0
		for _, vertex := range []bool{false, true} {
			for c := int32(1); int(c) < g.N(); c++ {
				if vertex {
					if pre.Size[c] < 2 {
						continue // a leaf's failure changes no other distance
					}
					banned.Clear()
					banned.Add(c)
					r.Run(csr, bt.Dist, &pre, c, graph.NoEdge)
					sc.DistancesAvoiding(g, 0, Restriction{BannedEdge: graph.NoEdge, BannedVertices: banned}, want)
					want[c] = Unreachable
				} else {
					id := bt.ParentEdge[c]
					r.Run(csr, bt.Dist, &pre, c, id)
					sc.DistancesAvoiding(g, 0, Restriction{BannedEdge: id}, want)
				}
				order := run % 4
				run++
				for _, w := range readOrder(rng, bt, subtreeOf(bt, c), want, order) {
					if got := r.Dist(w); got != want[w] {
						t.Fatalf("seed %d, vertex=%v, failure at %d, order %d: dist[%d] = %d, want %d",
							seed, vertex, c, order, w, got, want[w])
					}
				}
			}
		}
	}
}

// readOrder picks the targets one repair run is asked for, in order:
// 0 reads a random subset of sub shuffled, 1 reads sub deepest first, 2
// reads the disconnected vertices first, 3 abandons the run after one read.
// Orders 0–2 also read a few random vertices, most of them outside sub.
func readOrder(rng *rand.Rand, bt *Tree, sub, want []int32, order int) []int32 {
	reads := append([]int32(nil), sub...)
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	switch order {
	case 0:
		reads = reads[:1+rng.Intn(len(reads))]
	case 1:
		slices.SortStableFunc(reads, func(a, b int32) int { return int(bt.Dist[b] - bt.Dist[a]) })
	case 2:
		slices.SortStableFunc(reads, func(a, b int32) int {
			return boolRank(want[a] != Unreachable) - boolRank(want[b] != Unreachable)
		})
	case 3:
		return reads[len(reads)-1:]
	}
	for k := 0; k < 3; k++ {
		reads = append(reads, int32(rng.Intn(len(bt.Dist))))
	}
	return reads
}

func boolRank(b bool) int {
	if b {
		return 1
	}
	return 0
}
