package bfs

import (
	"math/rand"
	"testing"

	"ftbfs/internal/graph"
)

func grid3x3() *graph.Graph {
	// 0 1 2
	// 3 4 5
	// 6 7 8
	b := graph.NewBuilder(9)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			v := r*3 + c
			if c+1 < 3 {
				b.Add(v, v+1)
			}
			if r+1 < 3 {
				b.Add(v, v+3)
			}
		}
	}
	return b.Graph()
}

func TestFromDistances(t *testing.T) {
	g := grid3x3()
	tr := From(g, 0)
	want := []int32{0, 1, 2, 1, 2, 3, 2, 3, 4}
	for v, d := range want {
		if tr.Dist[v] != d {
			t.Fatalf("dist[%d]=%d want %d", v, tr.Dist[v], d)
		}
	}
	if tr.Parent[0] != -1 || tr.ParentEdge[0] != graph.NoEdge {
		t.Fatal("source must have no parent")
	}
}

func TestCanonicalMinIndexParent(t *testing.T) {
	g := grid3x3()
	tr := From(g, 0)
	// vertex 4 has parents 1 and 3 at distance 1; canonical is min = 1.
	if tr.Parent[4] != 1 {
		t.Fatalf("parent[4]=%d want 1", tr.Parent[4])
	}
	// vertex 8 has parents 5 and 7 at distance 3; canonical is 5.
	if tr.Parent[8] != 5 {
		t.Fatalf("parent[8]=%d want 5", tr.Parent[8])
	}
}

func TestPathToPrefixClosure(t *testing.T) {
	g := grid3x3()
	tr := From(g, 0)
	for v := 0; v < g.N(); v++ {
		p := tr.PathTo(v)
		if int32(len(p)-1) != tr.Dist[v] {
			t.Fatalf("path length %d != dist %d", len(p)-1, tr.Dist[v])
		}
		if p[0] != 0 || p[len(p)-1] != int32(v) {
			t.Fatalf("bad endpoints %v", p)
		}
		// prefix closure: the canonical path to p[i] is p[:i+1]
		for i, u := range p {
			q := tr.PathTo(int(u))
			if len(q) != i+1 {
				t.Fatalf("prefix closure violated at %d on path to %d", u, v)
			}
			for j := range q {
				if q[j] != p[j] {
					t.Fatalf("prefix mismatch %v vs %v", q, p[:i+1])
				}
			}
		}
	}
}

func TestUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	b.Add(0, 1)
	g := b.Graph()
	tr := From(g, 0)
	if tr.Dist[2] != Unreachable || tr.PathTo(2) != nil {
		t.Fatal("vertex 2 should be unreachable")
	}
	if len(tr.Order) != 2 {
		t.Fatalf("Order=%v", tr.Order)
	}
}

func TestTreeEdgeSetAndChildEndpoint(t *testing.T) {
	g := grid3x3()
	tr := From(g, 0)
	es := tr.EdgeSet(g.M())
	if es.Len() != 8 {
		t.Fatalf("tree must have n-1=8 edges, got %d", es.Len())
	}
	es.ForEach(func(id graph.EdgeID) {
		child := tr.ChildEndpoint(g, id)
		e := g.EdgeByID(id)
		other := e.Other(child)
		if tr.Dist[child] != tr.Dist[other]+1 {
			t.Fatalf("edge %v: child %d not one deeper", e, child)
		}
		if tr.Parent[child] != other {
			t.Fatalf("edge %v not a parent edge of %d", e, child)
		}
	})
}

func TestDistancesAvoidingEdge(t *testing.T) {
	// cycle of 6: removing edge {0,1} forces the long way round.
	b := graph.NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.Add(i, (i+1)%6)
	}
	g := b.Graph()
	sc := NewScratch(g.N())
	out := make([]int32, g.N())
	sc.DistancesAvoiding(g, 0, Restriction{BannedEdge: g.EdgeIDOf(0, 1)}, out)
	if out[1] != 5 {
		t.Fatalf("dist to 1 avoiding {0,1} = %d want 5", out[1])
	}
	if out[3] != 3 {
		t.Fatalf("dist to 3 = %d want 3", out[3])
	}
}

func TestDistancesAvoidingVertices(t *testing.T) {
	g := grid3x3()
	banned := graph.NewVertexSet(g.N())
	banned.Add(1)
	banned.Add(3)
	sc := NewScratch(g.N())
	out := make([]int32, g.N())
	sc.DistancesAvoiding(g, 0, Restriction{BannedEdge: graph.NoEdge, BannedVertices: banned}, out)
	if out[4] != Unreachable {
		t.Fatalf("4 should be cut off, got %d", out[4])
	}
	if out[1] != Unreachable || out[3] != Unreachable {
		t.Fatal("banned vertices must be unreachable")
	}
}

func TestDistAvoidingEarlyExit(t *testing.T) {
	b := graph.NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.Add(i, (i+1)%6)
	}
	g := b.Graph()
	sc := NewScratch(g.N())
	d := sc.DistAvoiding(g, 0, 1, Restriction{BannedEdge: g.EdgeIDOf(0, 1)})
	if d != 5 {
		t.Fatalf("DistAvoiding=%d want 5", d)
	}
	if sc.DistAvoiding(g, 2, 2, Restriction{BannedEdge: graph.NoEdge}) != 0 {
		t.Fatal("self distance must be 0")
	}
}

func TestDistAvoidingBannedSource(t *testing.T) {
	g := grid3x3()
	banned := graph.NewVertexSet(g.N())
	banned.Add(0)
	sc := NewScratch(g.N())
	if d := sc.DistAvoiding(g, 0, 5, Restriction{BannedEdge: graph.NoEdge, BannedVertices: banned}); d != Unreachable {
		t.Fatalf("banned source should be unreachable, got %d", d)
	}
}

// A banned source reaches nothing, not even itself: DistAvoiding must agree
// with DistancesAvoiding when the source is also the target.
func TestDistAvoidingBannedSourceIsTarget(t *testing.T) {
	g := grid3x3()
	banned := graph.NewVertexSet(g.N())
	banned.Add(4)
	r := Restriction{BannedEdge: graph.NoEdge, BannedVertices: banned}
	sc := NewScratch(g.N())
	if d := sc.DistAvoiding(g, 4, 4, r); d != Unreachable {
		t.Fatalf("banned source as target: DistAvoiding = %d, want Unreachable", d)
	}
	out := sc.DistancesAvoiding(g, 4, r, make([]int32, g.N()))
	if out[4] != Unreachable {
		t.Fatalf("banned source: DistancesAvoiding[4] = %d, want Unreachable", out[4])
	}
}

// A zero lower bound turns the bound into a plain radius.
func TestLevelsBoundedAndBanned(t *testing.T) {
	g := grid3x3()
	sc := NewScratch(g.N())
	sc.Levels(g.SubgraphCSR(nil), 8, 2, make([]int32, g.N()), []int32{4})
	want := []int32{Unreachable, Unreachable, 2, Unreachable, Unreachable, 1, 2, 1, 0}
	for v, w := range want {
		if got := sc.Level(int32(v)); got != w {
			t.Fatalf("Level(%d) = %d, want %d", v, got, w)
		}
	}
}

// With a zero lower bound and an unreachable bound Levels is
// DistancesAvoiding with banned vertices.
func TestLevelsMatchesDistancesAvoiding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for seed := int64(0); seed < 5; seed++ {
		g := randomConnected(t, 60, int(seed)*25, seed)
		c := g.SubgraphCSR(nil)
		sc, ref := NewScratch(g.N()), NewScratch(g.N())
		want := make([]int32, g.N())
		for trial := 0; trial < 10; trial++ {
			root := rng.Intn(g.N())
			var ban []int32
			set := graph.NewVertexSet(g.N())
			for len(ban) < 8 {
				x := int32(rng.Intn(g.N()))
				if int(x) != root && set.Add(x) {
					ban = append(ban, x)
				}
			}
			sc.Levels(c, root, int32(g.N()), make([]int32, g.N()), ban)
			ref.DistancesAvoiding(g, root, Restriction{BannedEdge: graph.NoEdge, BannedVertices: set}, want)
			for v := range want {
				if got := sc.Level(int32(v)); got != want[v] {
					t.Fatalf("seed %d trial %d: Level(%d) = %d, want %d", seed, trial, v, got, want[v])
				}
			}
		}
	}
}

// With lb the true distances from some vertex s, Levels keeps exactly the
// vertices y with lb[y] + dist(root, y) ≤ bound, at their exact level, and
// reads Unreachable everywhere else.
func TestLevelsPrunedByLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for seed := int64(0); seed < 8; seed++ {
		g := randomConnected(t, 80, int(seed)*20, seed)
		c := g.SubgraphCSR(nil)
		sc, ref := NewScratch(g.N()), NewScratch(g.N())
		want := make([]int32, g.N())
		for trial := 0; trial < 20; trial++ {
			lb := Distances(g, rng.Intn(g.N()))
			root := rng.Intn(g.N())
			var ban []int32
			set := graph.NewVertexSet(g.N())
			for nb := rng.Intn(10); len(ban) < nb; {
				x := int32(rng.Intn(g.N()))
				if int(x) != root && set.Add(x) {
					ban = append(ban, x)
				}
			}
			bound := lb[root] + int32(rng.Intn(2*Eccentricity(g, root)+2)) - 1
			sc.Levels(c, root, bound, lb, ban)
			ref.DistancesAvoiding(g, root, Restriction{BannedEdge: graph.NoEdge, BannedVertices: set}, want)
			for v := range want {
				exp := Unreachable
				if want[v] != Unreachable && lb[v]+want[v] <= bound {
					exp = want[v]
				}
				if got := sc.Level(int32(v)); got != exp {
					t.Fatalf("seed %d trial %d: Level(%d) = %d, want %d (lb %d, dist %d, bound %d)",
						seed, trial, v, got, exp, lb[v], want[v], bound)
				}
			}
		}
	}
}

func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := graph.NewBuilder(40)
	for i := 1; i < 40; i++ {
		b.Add(i, rng.Intn(i)) // random connected tree
	}
	for k := 0; k < 60; k++ {
		b.Add(rng.Intn(40), rng.Intn(40))
	}
	g := b.Graph()
	sc := NewScratch(g.N())
	out := make([]int32, g.N())
	for trial := 0; trial < 20; trial++ {
		e := graph.EdgeID(rng.Intn(g.M()))
		sc.DistancesAvoiding(g, 0, Restriction{BannedEdge: e}, out)
		// brute force: rebuild graph without e
		nb := graph.NewBuilder(g.N())
		for id, ed := range g.Edges() {
			if graph.EdgeID(id) != e {
				nb.Add(int(ed.U), int(ed.V))
			}
		}
		want := Distances(nb.Graph(), 0)
		for v := range want {
			if out[v] != want[v] {
				t.Fatalf("trial %d: dist[%d]=%d want %d (edge %v)", trial, v, out[v], want[v], g.EdgeByID(e))
			}
		}
	}
}

func TestEccentricity(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddPath(0, 1, 2, 3, 4)
	g := b.Graph()
	if Eccentricity(g, 0) != 4 || Eccentricity(g, 2) != 2 {
		t.Fatal("eccentricity wrong")
	}
}
