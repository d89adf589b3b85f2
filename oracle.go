package ftbfs

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"ftbfs/internal/bfs"
	"ftbfs/internal/graph"
)

// serving is the query side every structure shares, whatever its failure
// model: H inside its base graph, plus the intact distance vector, query
// plan and oracle pool built from it on first use. Structure and
// VertexStructure embed it, so Dist, Plan, Oracle and OraclePool have one
// implementation; the model survives only as the vertex flag, which decides
// what a failure is and which failures are valid.
type serving struct {
	g          *graph.Graph
	src        int
	edges      *graph.EdgeSet // E(H)
	reinforced *graph.EdgeSet // fail-proof edges; nil in the vertex model
	vertex     bool           // single failed vertices instead of single failed edges

	intactOnce sync.Once
	intactDist []int32 // cached dist(s, ·) in the intact H; see intactDistances

	planOnce sync.Once
	qplan    *QueryPlan // cached serving plan; see Plan

	poolOnce sync.Once
	pool     *OraclePool
}

// intactDistances returns the distance vector of the intact structure H,
// computing it on the first call. Structures are immutable once built, so the
// cache is never invalidated; the vector is shared read-only by every Oracle
// of the structure and by its query plan.
func (s *serving) intactDistances() []int32 {
	s.intactOnce.Do(func() {
		sc := bfs.NewScratch(s.g.N())
		s.intactDist = sc.DistancesAvoiding(s.g, s.src,
			bfs.Restriction{BannedEdge: graph.NoEdge, AllowedEdges: s.edges},
			make([]int32, s.g.N()))
	})
	return s.intactDist
}

// Dist returns dist(source, v) inside the intact structure H. The vector is
// computed once on first use and cached forever (structures are immutable
// once built); the method is safe for concurrent use.
func (s *serving) Dist(v int) int {
	return int(s.intactDistances()[v])
}

// Oracle answers distance queries inside a structure under one simulated
// failure — the operational view of the FT-BFS guarantee. An edge
// structure's oracle takes failed edges (DistAvoiding), a vertex
// structure's takes failed vertices (DistAvoidingVertex); a failure of the
// other model is rejected. Failure queries run against the structure's
// QueryPlan: a failure off the target's tree path is an O(1) lookup of the
// cached intact vector, any other failure repairs only the affected
// subtree. DistAvoidingRef and DistAvoidingVertexRef keep the full-BFS
// search as the reference implementation.
// An Oracle is not safe for concurrent use; create one per goroutine or
// check oracles out of an OraclePool.
type Oracle struct {
	s       *serving
	plan    *QueryPlan
	scratch *bfs.Scratch     // reference and baseline searches
	dist    []int32          // reference and baseline searches
	banned  *graph.VertexSet // reference and baseline searches, vertex model

	// Subtree-repair state: the scratch is allocated on the first failure
	// that needs a repair and then recycled (pooled oracles carry it across
	// requests); repaired names the failure whose repair it currently
	// holds, so repeated queries of one failure — including a whole grouped
	// batch — answer from a single repair run.
	repair   *bfs.Repair
	repaired int32

	// Batch scratch, reused across batches: each query's failure, and the
	// valid queries' indexes in answering order.
	ids []int32
	ord []int32

	// Plan-path accounting, plain counters because an oracle is
	// single-goroutine by contract; OraclePool.Put folds them into the
	// process-wide telemetry totals so the 30 ns query path never pays an
	// atomic op.
	planHits, planRepairs uint64
}

// Oracle returns a failure-simulation oracle for the structure.
func (s *serving) Oracle() *Oracle {
	o := &Oracle{
		s:        s,
		plan:     s.Plan(),
		scratch:  bfs.NewScratch(s.g.N()),
		dist:     make([]int32, s.g.N()),
		repaired: -1,
	}
	if s.vertex {
		o.banned = graph.NewVertexSet(s.g.N())
	}
	return o
}

// Unreachable is returned by distance queries for unreachable vertices.
const Unreachable = int(bfs.Unreachable)

// Dist returns dist(source, v) inside the intact structure H; it reads the
// structure's shared cached vector, so repeated calls are O(1) lookups.
func (o *Oracle) Dist(v int) int { return o.s.Dist(v) }

// FailureQuery is one failure query: the target vertex V and the simulated
// failure — the edge {FailedU, FailedV}, or, when Vertex is set, the vertex
// FailedU (FailedV is then ignored). It is the unit of DistAvoidingQuery,
// DistAvoidingMany and DistAvoidingEach for both failure models.
type FailureQuery struct {
	V       int
	FailedU int
	FailedV int
	Vertex  bool
}

// modelName names a failure model in error messages.
func modelName(vertex bool) string {
	if vertex {
		return "vertex"
	}
	return "edge"
}

// failure validates q against the structure and returns its failure in the
// plan's terms: the failed EdgeID in the edge model, the failed vertex in
// the vertex model. The target must be a vertex of the graph, the failure
// must belong to the structure's model, and it must be able to fail: the
// source never can, and in H (inH) a reinforced edge cannot either — the
// baseline over all of G lifts only that last rule.
func (o *Oracle) failure(q FailureQuery, inH bool) (int32, error) {
	n := o.s.g.N()
	if q.V < 0 || q.V >= n {
		return -1, fmt.Errorf("ftbfs: vertex %d out of range [0,%d)", q.V, n)
	}
	if q.Vertex != o.s.vertex {
		return -1, fmt.Errorf("ftbfs: %s failure on a %s-failure structure", modelName(q.Vertex), modelName(o.s.vertex))
	}
	if q.Vertex {
		w := q.FailedU
		if w < 0 || w >= n {
			return -1, fmt.Errorf("ftbfs: failed vertex %d out of range [0,%d)", w, n)
		}
		if w == o.s.src {
			return -1, fmt.Errorf("ftbfs: the source %d cannot fail", w)
		}
		return int32(w), nil
	}
	id := o.s.g.EdgeIDOf(q.FailedU, q.FailedV)
	if id == graph.NoEdge {
		return -1, fmt.Errorf("ftbfs: {%d,%d} is not an edge of the base graph", q.FailedU, q.FailedV)
	}
	if inH && o.s.reinforced.Contains(id) {
		return -1, fmt.Errorf("ftbfs: {%d,%d} is reinforced and cannot fail", q.FailedU, q.FailedV)
	}
	return int32(id), nil
}

// planDist answers one validated failure query through the query plan,
// keeping the oracle's repair scratch in sync.
func (o *Oracle) planDist(v int, f int32) int32 {
	if o.repair == nil {
		o.repair = bfs.NewRepair(o.s.g.N())
	}
	d, repaired, viaRepair := o.plan.dist(v, f, o.repair, o.repaired)
	o.repaired = repaired
	if viaRepair {
		o.planRepairs++
	} else {
		o.planHits++
	}
	return d
}

// DistAvoidingQuery returns dist(source, q.V) in H minus q's failure. A
// failure the structure's model does not tolerate is rejected: a reinforced
// edge, the source vertex, or a failure of the other model.
//
// The answer comes from the structure's QueryPlan: O(1) when the failure is
// off the target's tree path in H's BFS tree (the intact distance
// survives), and a subtree-local repair search otherwise. It always equals
// what the full-search reference returns.
func (o *Oracle) DistAvoidingQuery(q FailureQuery) (int, error) {
	f, err := o.failure(q, true)
	if err != nil {
		return 0, err
	}
	return int(o.planDist(q.V, f)), nil
}

// DistAvoiding returns dist(source, v) in H \ {failedU, failedV}, the edge
// model's DistAvoidingQuery. Failing a reinforced edge is rejected —
// reinforced edges cannot fail by contract.
func (o *Oracle) DistAvoiding(v, failedU, failedV int) (int, error) {
	return o.DistAvoidingQuery(FailureQuery{V: v, FailedU: failedU, FailedV: failedV})
}

// DistAvoidingVertex returns dist(source, v) in H \ {w}, the vertex model's
// DistAvoidingQuery. Failing the source is rejected; querying the failed
// vertex itself answers Unreachable.
func (o *Oracle) DistAvoidingVertex(v, w int) (int, error) {
	return o.DistAvoidingQuery(FailureQuery{V: v, FailedU: w, Vertex: true})
}

// DistAvoidingRef is the reference implementation of DistAvoiding: a full
// restricted BFS over the base graph, rejecting non-H arcs one by one. It
// is what the plan-backed fast path is differential-tested against; prefer
// DistAvoiding everywhere else.
func (o *Oracle) DistAvoidingRef(v, failedU, failedV int) (int, error) {
	return o.search(FailureQuery{V: v, FailedU: failedU, FailedV: failedV}, true)
}

// DistAvoidingVertexRef is the reference implementation of
// DistAvoidingVertex: a full restricted BFS over the base graph with w
// banned, rejecting non-H arcs one by one.
func (o *Oracle) DistAvoidingVertexRef(v, w int) (int, error) {
	return o.search(FailureQuery{V: v, FailedU: w, Vertex: true}, true)
}

// BaselineDistAvoiding returns dist(source, v) in the full graph G minus
// the failed edge — the yardstick the FT-BFS contract compares against.
func (o *Oracle) BaselineDistAvoiding(v, failedU, failedV int) (int, error) {
	return o.search(FailureQuery{V: v, FailedU: failedU, FailedV: failedV}, false)
}

// BaselineDistAvoidingVertex returns dist(source, v) in the full graph G
// minus the failed vertex — the yardstick the vertex FT-BFS contract
// compares against.
func (o *Oracle) BaselineDistAvoidingVertex(v, w int) (int, error) {
	return o.search(FailureQuery{V: v, FailedU: w, Vertex: true}, false)
}

// search answers q with a full restricted BFS over the base graph: through
// H's edges only when inH (the reference), over all of G otherwise (the
// baseline).
func (o *Oracle) search(q FailureQuery, inH bool) (int, error) {
	f, err := o.failure(q, inH)
	if err != nil {
		return 0, err
	}
	r := bfs.Restriction{BannedEdge: graph.NoEdge}
	if inH {
		r.AllowedEdges = o.s.edges
	}
	if q.Vertex {
		o.banned.Clear()
		o.banned.Add(f)
		r.BannedVertices = o.banned
	} else {
		r.BannedEdge = graph.EdgeID(f)
	}
	o.scratch.DistancesAvoiding(o.s.g, o.s.src, r, o.dist)
	return int(o.dist[q.V]), nil
}

// DistAvoidingMany answers a vector of failure queries. The whole batch is
// validated up front — an invalid query (out-of-range target, or a failure
// DistAvoidingQuery rejects) fails the call before any result is published,
// so out is never left partially written. Valid batches are then answered
// grouped by failure: queries of the same tree failure share one subtree
// repair, and off-tree-path failures are O(1) lookups. Results land in out
// (allocated when nil) in query order; each equals what DistAvoidingQuery
// returns for that query.
func (o *Oracle) DistAvoidingMany(queries []FailureQuery, out []int) ([]int, error) {
	if out == nil {
		out = make([]int, len(queries))
	}
	if len(out) != len(queries) {
		return nil, fmt.Errorf("ftbfs: DistAvoidingMany: out has %d slots for %d queries", len(out), len(queries))
	}
	if err := o.answer(queries, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// DistAvoidingEach answers a vector of failure queries with per-query error
// slots: an invalid query fills errs[i] and leaves out[i] at Unreachable
// instead of failing the whole batch — the partial-result contract a
// scatter-gather router needs. Valid queries are still answered grouped by
// failure, exactly as in DistAvoidingMany. out and errs are allocated when
// nil or mis-sized; both are returned.
func (o *Oracle) DistAvoidingEach(queries []FailureQuery, out []int, errs []error) ([]int, []error) {
	if len(out) != len(queries) {
		out = make([]int, len(queries))
	}
	if len(errs) != len(queries) {
		errs = make([]error, len(queries))
	}
	o.answer(queries, out, errs)
	return out, errs
}

// answer is the one batch loop behind DistAvoidingMany and DistAvoidingEach.
// It validates every query, then answers the valid ones in failure order:
// each tree failure is repaired exactly once and serves all its targets
// (planDist reuses the scratch while the failure repeats). With errs nil the
// first invalid query fails the call before out is touched; otherwise it
// fills its errs slot and its out slot reads Unreachable. The sort runs on
// the oracle's recycled index buffers, so steady-state batches allocate
// nothing.
func (o *Oracle) answer(queries []FailureQuery, out []int, errs []error) error {
	o.ids = o.ids[:0]
	o.ord = o.ord[:0]
	for i, q := range queries {
		f, err := o.failure(q, true)
		if errs != nil {
			errs[i] = err
			out[i] = Unreachable
		}
		if err != nil && errs == nil {
			return fmt.Errorf("ftbfs: query %d: %w", i, err)
		}
		o.ids = append(o.ids, f)
		if err == nil {
			o.ord = append(o.ord, int32(i))
		}
	}
	// Ties keep vector order, so a group reads its targets as the caller
	// listed them (the resumable repair answers any order exactly).
	slices.SortFunc(o.ord, func(a, b int32) int { return cmp.Or(cmp.Compare(o.ids[a], o.ids[b]), cmp.Compare(a, b)) })
	for _, i := range o.ord {
		out[i] = int(o.planDist(queries[i].V, o.ids[i]))
	}
	return nil
}
