package graph

import (
	"math/rand"
	"testing"
)

func randomFrozen(t *testing.T, n, m int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 1; i < n; i++ {
		mustEdge(t, g, i, rng.Intn(i))
	}
	for len(g.edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			mustEdge(t, g, u, v)
		}
	}
	return g.Freeze()
}

func TestFullCSRMatchesAdjacency(t *testing.T) {
	g := randomFrozen(t, 50, 120, 1)
	c := g.SubgraphCSR(nil)
	if c.N() != g.N() {
		t.Fatalf("N = %d, want %d", c.N(), g.N())
	}
	if c.NumArcs() != 2*g.M() {
		t.Fatalf("NumArcs = %d, want %d", c.NumArcs(), 2*g.M())
	}
	for u := 0; u < g.N(); u++ {
		want := g.Neighbors(u)
		got := c.ArcsOf(int32(u))
		if len(got) != len(want) || c.Degree(int32(u)) != len(want) {
			t.Fatalf("vertex %d: %d arcs, want %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d arc %d: %v, want %v", u, i, got[i], want[i])
			}
		}
	}
}

func TestSubgraphCSRKeepsOnlyAllowedArcs(t *testing.T) {
	g := randomFrozen(t, 60, 150, 2)
	allowed := NewEdgeSet(g.M())
	for id := 0; id < g.M(); id += 2 {
		allowed.Add(EdgeID(id))
	}
	c := g.SubgraphCSR(allowed)
	if c.NumArcs() != 2*allowed.Len() {
		t.Fatalf("NumArcs = %d, want %d", c.NumArcs(), 2*allowed.Len())
	}
	for u := 0; u < g.N(); u++ {
		var want []Arc
		for _, a := range g.Neighbors(u) {
			if allowed.Contains(a.ID) {
				want = append(want, a)
			}
		}
		got := c.ArcsOf(int32(u))
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %d arcs, want %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d arc %d: %v, want %v", u, i, got[i], want[i])
			}
			// Frozen-order inheritance: rows stay sorted by neighbour.
			if i > 0 && got[i-1].To > got[i].To {
				t.Fatalf("vertex %d: row not sorted at %d", u, i)
			}
		}
	}
}

func TestCSRPanicsBeforeFreeze(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1)
	for name, f := range map[string]func(){
		"SubgraphCSR":     func() { g.SubgraphCSR(NewEdgeSet(g.M())) },
		"SubgraphCSR/nil": func() { g.SubgraphCSR(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s before Freeze did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEdgesViewIsZeroCopy(t *testing.T) {
	g := randomFrozen(t, 20, 40, 3)
	v1, v2 := g.EdgesView(), g.EdgesView()
	if len(v1) != g.M() || &v1[0] != &v2[0] {
		t.Fatal("EdgesView must alias the graph's edge storage")
	}
	cp := g.Edges()
	if &cp[0] == &v1[0] {
		t.Fatal("Edges must return a copy")
	}
	for i := range cp {
		if cp[i] != v1[i] {
			t.Fatalf("edge %d: copy %v != view %v", i, cp[i], v1[i])
		}
	}
}
