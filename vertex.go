package ftbfs

import (
	"fmt"
	"sync"

	"ftbfs/internal/graph"
	"ftbfs/internal/vertexft"
)

// VertexStructure is a built vertex fault-tolerant BFS structure: a
// subgraph H ⊆ G with dist(s, v, H \ {w}) ≤ dist(s, v, G \ {w}) for every
// vertex v and every failed vertex w ≠ s — the companion problem of the
// paper's edge-failure construction (Parter DISC'14; Parter–Peleg ESA'13).
// Like Structure, it is immutable once built: the read-only query methods
// are safe for concurrent use. It serves through the same QueryPlan,
// Oracle and OraclePool as Structure; its oracles take failed vertices
// (Oracle.DistAvoidingVertex) instead of failed edges.
type VertexStructure struct {
	st *vertexft.Structure
	serving
}

// newVertexStructure wraps a built vertex structure with its (lazily built)
// query side.
func newVertexStructure(st *vertexft.Structure) *VertexStructure {
	return &VertexStructure{st: st, serving: serving{g: st.G, src: st.S, edges: st.Edges, vertex: true}}
}

// vertexWorkspaces recycles vertexft build workspaces across BuildVertex
// calls: the store's build-through, `serve -vertex-sources` pre-builds and
// /build vertexSources all construct structures one call at a time, and the
// shared workspace is what removes the per-build O(n) scratch allocations
// (see BenchmarkVertexBuild). Entries sized for a different graph are
// resized by the build itself.
var vertexWorkspaces = sync.Pool{New: func() any { return vertexft.NewWorkspace() }}

// BuildVertex constructs the vertex FT-BFS structure for (g, source). The
// graph is frozen by this call. Unlike Build there is no ε: the vertex
// construction has no reinforcement dimension — every edge is fault-prone
// and every non-source vertex may fail.
func BuildVertex(g *Graph, source int) (*VertexStructure, error) {
	g.g.Freeze()
	ws := vertexWorkspaces.Get().(*vertexft.Workspace)
	st, err := vertexft.BuildWith(g.g, source, ws)
	vertexWorkspaces.Put(ws)
	if err != nil {
		return nil, err
	}
	return newVertexStructure(st), nil
}

// Source returns the BFS source.
func (s *VertexStructure) Source() int { return s.st.S }

// Size returns |E(H)|.
func (s *VertexStructure) Size() int { return s.st.Size() }

// Pairs returns the number of ⟨v, w⟩ pairs that purchased a replacement
// last edge during the build (equivalently |H| − |T0|).
func (s *VertexStructure) Pairs() int { return s.st.Pairs }

// Contains reports whether edge {u,v} belongs to the structure.
func (s *VertexStructure) Contains(u, v int) bool {
	id := s.st.G.EdgeIDOf(u, v)
	return id != graph.NoEdge && s.st.Edges.Contains(id)
}

// Edges returns all structure edges as endpoint pairs.
func (s *VertexStructure) Edges() [][2]int { return edgePairs(s.st.G, s.st.Edges) }

// Verify exhaustively checks the vertex FT-BFS contract over every single
// vertex failure; it runs O(n) BFS passes and is intended for validation,
// not hot paths.
func (s *VertexStructure) Verify() error {
	if viol := vertexft.Verify(s.st, 5); len(viol) > 0 {
		return fmt.Errorf("ftbfs: vertex FT-BFS contract violated: %v", viol)
	}
	return nil
}
