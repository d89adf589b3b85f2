package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"ftbfs"
	"ftbfs/internal/bfs"
	"ftbfs/internal/gen"
	"ftbfs/internal/graph"
)

// eps is the ε every workload builds its structures at.
const eps = 0.3

// batchSlots is the size of one /batch-query operation on the batch
// workload.
const batchSlots = 256

// pointQuery is one failure read: structure index, target and failed edge,
// with the answer the reference search gives.
type pointQuery struct {
	src  int // index into fixture.sources
	v    int
	a, b int // failed edge; a = -1 for an intact read
	want int
}

// fixture is one workload's inputs, all derived from the seed: the graph,
// the structures it serves, the operation pools and their expected answers.
type fixture struct {
	name    string
	seed    int64
	ig      *graph.Graph // internal view, for adjacency walks
	g       *ftbfs.Graph
	text    string // library text format, the /build body
	sources []int
	refs    []*ftbfs.Structure // local builds, the ground truth

	points  []pointQuery   // point: failure reads; mutate: intact reads
	batches [][]pointQuery // batch: batchSlots slots each
}

// newFixture derives a workload's fixture from its seed. Expected answers
// come from Oracle.DistAvoidingRef (a full restricted BFS) on a local
// ftbfs.Build of the same graph, or, for intact reads, from the
// generation-0 distances, which the same-level mutation stream leaves
// unchanged.
func newFixture(name string, seed int64) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{name: name, seed: seed}
	nSources := 0
	switch name {
	case "point":
		f.ig, nSources = gen.RandomConnected(400, 1200, seed), 16
	case "batch":
		// The grid's sources are fixed, one per quadrant, so a seed changes
		// only the slot draws: a repair's cost follows the depth of the
		// source's BFS tree, which on a grid depends on where the source
		// sits, and four random sources made the work per answer swing
		// between seeds.
		f.ig = gen.Grid(45, 45)
		f.sources = []int{11*45 + 11, 11*45 + 33, 33*45 + 11, 33*45 + 33}
	case "mutate":
		f.ig, nSources = gen.RandomConnected(400, 1200, seed), 1
	default:
		return nil, fmt.Errorf("unknown workload %q (want point, batch or mutate)", name)
	}
	var buf bytes.Buffer
	if err := graph.Encode(&buf, f.ig); err != nil {
		return nil, err
	}
	f.text = buf.String()
	g, err := ftbfs.ReadGraph(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	f.g = g
	if f.sources == nil {
		f.sources = rng.Perm(f.ig.N())[:nSources]
	}
	for _, s := range f.sources {
		st, err := ftbfs.Build(g, s, eps)
		if err != nil {
			return nil, fmt.Errorf("reference build s%d: %w", s, err)
		}
		f.refs = append(f.refs, st)
	}
	switch name {
	case "point":
		f.points, err = f.failureReads(rng, 4096)
	case "batch":
		f.batches, err = f.repairBatches(rng, 16)
	case "mutate":
		f.points = f.intactReads(rng, 4096)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// mutStream returns a fresh writer stream over the fixture's graph, levels
// taken from the first source. Every call yields the same sequence.
func (f *fixture) mutStream() *mutStream {
	return newMutStream(f.ig, f.sources[0], rand.New(rand.NewSource(f.seed+1)))
}

// failureReads draws point reads: a uniform structure, a uniform failable
// edge (an edge of G that the structure does not reinforce) and a uniform
// target.
func (f *fixture) failureReads(rng *rand.Rand, n int) ([]pointQuery, error) {
	edges := f.ig.Edges()
	failable := make([][]graph.Edge, len(f.refs))
	for i, st := range f.refs {
		for _, e := range edges {
			if !st.IsReinforced(int(e.U), int(e.V)) {
				failable[i] = append(failable[i], e)
			}
		}
	}
	out := make([]pointQuery, n)
	for j := range out {
		i := rng.Intn(len(f.refs))
		e := failable[i][rng.Intn(len(failable[i]))]
		q := pointQuery{src: i, v: rng.Intn(f.ig.N()), a: int(e.U), b: int(e.V)}
		d, err := f.refs[i].Oracle().DistAvoidingRef(q.v, q.a, q.b)
		if err != nil {
			return nil, err
		}
		q.want = d
		out[j] = q
	}
	return out, nil
}

// intactReads draws /dist reads on the first structure with uniform targets.
func (f *fixture) intactReads(rng *rand.Rand, n int) []pointQuery {
	out := make([]pointQuery, n)
	for j := range out {
		v := rng.Intn(f.ig.N())
		out[j] = pointQuery{src: 0, v: v, a: -1, b: -1, want: f.refs[0].Dist(v)}
	}
	return out
}

// repairBatches draws batches whose slots are spread evenly over the
// structures. A slot draws a uniform target and fails a uniform failable
// tree edge on the target's path in H's BFS tree, so every slot forces a
// real subtree repair; within one structure no tree edge fails twice in a
// batch.
func (f *fixture) repairBatches(rng *rand.Rand, n int) ([][]pointQuery, error) {
	per := batchSlots / len(f.refs)
	trees := make([]*hTree, len(f.refs))
	for i, st := range f.refs {
		trees[i] = newHTree(f.ig, st)
	}
	out := make([][]pointQuery, n)
	for j := range out {
		batch := make([]pointQuery, 0, batchSlots)
		for i, t := range trees {
			o := f.refs[i].Oracle()
			used := map[graph.Edge]bool{}
			for tries := 0; len(batch) < (i+1)*per; tries++ {
				if tries > 100*per {
					return nil, fmt.Errorf("structure s%d: too few failable tree edges for %d slots", f.refs[i].Source(), per)
				}
				v := rng.Intn(f.ig.N())
				path := t.failablePath(v)
				if len(path) == 0 {
					continue
				}
				e := path[rng.Intn(len(path))]
				if used[e] {
					continue
				}
				used[e] = true
				q := pointQuery{src: i, v: v, a: int(e.U), b: int(e.V)}
				d, err := o.DistAvoidingRef(q.v, q.a, q.b)
				if err != nil {
					return nil, err
				}
				q.want = d
				batch = append(batch, q)
			}
		}
		out[j] = batch
	}
	return out, nil
}

// hTree is the canonical BFS tree of a structure's H, recovered through the
// public plan classifier: each vertex's parent is the neighbour one level up
// whose edge QueryPlan.IsTreeEdge accepts.
type hTree struct {
	st     *ftbfs.Structure
	parent []int // -1 at the source and at unreachable vertices
}

func newHTree(g *graph.Graph, st *ftbfs.Structure) *hTree {
	plan := st.Plan()
	t := &hTree{st: st, parent: make([]int, g.N())}
	for v := range t.parent {
		t.parent[v] = -1
		dv := st.Dist(v)
		if v == st.Source() || dv == ftbfs.Unreachable {
			continue
		}
		for _, a := range g.Neighbors(v) {
			if p := int(a.To); st.Dist(p) == dv-1 && plan.IsTreeEdge(p, v) {
				t.parent[v] = p
				break
			}
		}
	}
	return t
}

// failablePath returns the tree edges on the path from the source to v that
// may fail (are not reinforced), each as (parent, child).
func (t *hTree) failablePath(v int) []graph.Edge {
	var path []graph.Edge
	for c := v; t.parent[c] >= 0; c = t.parent[c] {
		if p := t.parent[c]; !t.st.IsReinforced(p, c) {
			path = append(path, graph.Edge{U: int32(p), V: int32(c)})
		}
	}
	return path
}

// mutStream yields the mutate workload's writer operations. It alternates
// inserting a fresh non-edge whose endpoints sit at the same BFS level from
// the source (intact distances stay unchanged) with deleting an edge an
// earlier insert added. No operation repeats and none is retried.
type mutStream struct {
	cands   []graph.Edge // shuffled same-level non-edges, consumed in order
	next    int
	pending []graph.Edge // acknowledged inserts not yet deleted (FIFO)
	lastIns bool
}

func newMutStream(g *graph.Graph, source int, rng *rand.Rand) *mutStream {
	level := bfs.Distances(g, source)
	byLevel := map[int32][]int{}
	for v, d := range level {
		byLevel[d] = append(byLevel[d], v)
	}
	levels := make([]int32, 0, len(byLevel))
	for d := range byLevel {
		levels = append(levels, d)
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	var cands []graph.Edge
	for _, d := range levels {
		vs := byLevel[d]
		for i, u := range vs {
			for _, w := range vs[i+1:] {
				if !g.HasEdge(u, w) {
					cands = append(cands, graph.Edge{U: int32(u), V: int32(w)})
				}
			}
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return &mutStream{cands: cands}
}

// nextOp returns the next operation: a delete of the oldest acknowledged
// insert right after an insert, otherwise a fresh insert. ok is false once
// the candidate pool is exhausted.
func (m *mutStream) nextOp() (mut ftbfs.Mutation, ok bool) {
	if m.lastIns && len(m.pending) > 0 {
		e := m.pending[0]
		m.pending = m.pending[1:]
		m.lastIns = false
		return ftbfs.Mutation{Op: ftbfs.MutDelete, U: int(e.U), V: int(e.V)}, true
	}
	if m.next >= len(m.cands) {
		return ftbfs.Mutation{}, false
	}
	e := m.cands[m.next]
	m.next++
	m.lastIns = true
	return ftbfs.Mutation{Op: ftbfs.MutInsert, U: int(e.U), V: int(e.V)}, true
}

// ack records the outcome of an operation nextOp returned: only an
// acknowledged insert becomes eligible for a later delete.
func (m *mutStream) ack(mut ftbfs.Mutation, applied bool) {
	if applied && mut.Op == ftbfs.MutInsert {
		m.pending = append(m.pending, graph.Edge{U: int32(mut.U), V: int32(mut.V)})
	}
}
