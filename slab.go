package ftbfs

import (
	"fmt"
	"io"

	"ftbfs/internal/bfs"
	"ftbfs/internal/core"
	"ftbfs/internal/graph"
	"ftbfs/internal/vertexft"
)

// SaveSlab serialises the structure as a version-3 binary record: the edge
// sets plus the fully materialized query plan (H's CSR, the intact distance
// vector, H's canonical BFS tree in BFS order), stored as flat little-endian
// slabs. Loading such a record skips text parsing, endpoint re-binding and
// every BFS pass — see LoadStructure, which sniffs the format. The plan is
// built first if the structure has never served a query.
func (s *Structure) SaveSlab(w io.Writer) error {
	alg, err := core.ParseAlgorithm(s.st.Stats.Algorithm)
	if err != nil {
		return fmt.Errorf("ftbfs: slab save: %w", err)
	}
	rec := s.slabRecord(core.SlabEdge)
	rec.Eps = s.st.Eps
	rec.Alg = alg
	rec.Reinforced = s.st.Reinforced
	rec.TreeEdges = s.st.TreeEdges
	return core.EncodeSlab(w, s.g, rec)
}

// SaveSlab serialises the vertex structure as a version-3 binary record; the
// vertex model stores no ε/algorithm/reinforcement dimension, mirroring the
// version-2 text record. See Structure.SaveSlab.
func (s *VertexStructure) SaveSlab(w io.Writer) error {
	rec := s.slabRecord(core.SlabVertex)
	rec.Pairs = s.st.Pairs
	return core.EncodeSlab(w, s.g, rec)
}

// slabRecord returns the part of a slab record both failure models share:
// H's edge set and the serving arrays of its query plan.
func (s *serving) slabRecord(model core.SlabModel) *core.SlabRecord {
	p := s.Plan()
	return &core.SlabRecord{
		Model:      model,
		S:          s.src,
		Gen:        s.g.Generation(),
		Edges:      s.edges,
		Intact:     p.intact,
		RowStart:   p.h.RowStart,
		Arcs:       p.h.Arcs,
		Parent:     p.t.Parent,
		ParentEdge: p.t.ParentEdge,
		Order:      p.t.Order(),
	}
}

// installSlabPlan installs the serving state a decoded binary record
// carries — the intact vector and the query plan over H's CSR and H's
// canonical BFS tree — so the first query after a load-through pays
// nothing. The decoder already validated every array: no search runs
// anywhere on the slab load path.
func (s *serving) installSlabPlan(rec *core.SlabRecord) error {
	h, err := graph.NewCSR(s.g.N(), rec.RowStart, rec.Arcs)
	if err != nil {
		return err
	}
	h.Gen = rec.Gen // the decoder verified rec.Gen == g.Generation()
	bt := &bfs.Tree{
		Source:     int32(rec.S),
		Dist:       rec.Intact,
		Parent:     rec.Parent,
		ParentEdge: rec.ParentEdge,
		Order:      rec.Order,
	}
	s.intactOnce.Do(func() { s.intactDist = rec.Intact })
	s.planOnce.Do(func() { s.qplan = newQueryPlan(s.g, h, rec.Intact, bt, s.vertex) })
	return nil
}

// slabStructure assembles a serving-ready edge structure from a decoded
// binary record.
func slabStructure(g *graph.Graph, rec *core.SlabRecord) (*Structure, error) {
	if rec.Model != core.SlabEdge {
		return nil, fmt.Errorf("ftbfs: record is a vertex structure (load it with LoadVertexStructure)")
	}
	cs := &core.Structure{
		G:          g,
		S:          rec.S,
		Eps:        rec.Eps,
		Edges:      rec.Edges,
		Reinforced: rec.Reinforced,
		TreeEdges:  rec.TreeEdges,
	}
	cs.Stats.Algorithm = rec.Alg.String()
	s := newStructure(cs)
	if err := s.installSlabPlan(rec); err != nil {
		return nil, err
	}
	return s, nil
}

// slabVertexStructure is slabStructure for the vertex model.
func slabVertexStructure(g *graph.Graph, rec *core.SlabRecord) (*VertexStructure, error) {
	if rec.Model != core.SlabVertex {
		return nil, fmt.Errorf("ftbfs: record is an edge structure (load it with LoadStructure)")
	}
	s := newVertexStructure(&vertexft.Structure{G: g, S: rec.S, Edges: rec.Edges, Pairs: rec.Pairs})
	if err := s.installSlabPlan(rec); err != nil {
		return nil, err
	}
	return s, nil
}
