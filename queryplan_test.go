package ftbfs_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ftbfs"
)

// buildRandom returns a random connected graph plus every edge it inserted,
// so differential tests can fail each edge of G — including edges the
// structure never bought.
func buildRandom(n, extra int, seed int64) (*ftbfs.Graph, [][2]int) {
	rng := rand.New(rand.NewSource(seed))
	g := ftbfs.NewGraph(n)
	var edges [][2]int
	add := func(u, v int) {
		g.MustAddEdge(u, v)
		edges = append(edges, [2]int{u, v})
	}
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i))
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			add(u, v)
		}
	}
	return g, edges
}

// TestQueryPlanMatchesReference is the property-style differential test of
// the serving fast path: across random graphs, ε values, and EVERY failable
// edge of the base graph (tree edges, non-tree structure edges, edges
// outside H, and disconnecting bridges), the plan-backed DistAvoiding must
// return exactly what the reference full-BFS DistAvoidingRef returns for
// every target, Unreachable included.
func TestQueryPlanMatchesReference(t *testing.T) {
	cases := []struct {
		n, extra int
		seed     int64
		eps      float64
	}{
		{40, 0, 1, 0.25}, // a bare tree: every failure disconnects its subtree
		{60, 8, 2, 0},    // a few chords; mostly bridges
		{60, 60, 3, 0.25},
		{60, 60, 4, 0.5},
		{50, 100, 5, 1}, // dense; baseline algorithm
		{64, 40, 6, 0.3},
	}
	for _, tc := range cases {
		g, edges := buildRandom(tc.n, tc.extra, tc.seed)
		st, err := ftbfs.Build(g, 0, tc.eps)
		if err != nil {
			t.Fatal(err)
		}
		o := st.Oracle()
		for _, e := range edges {
			if st.IsReinforced(e[0], e[1]) {
				if _, err := o.DistAvoiding(0, e[0], e[1]); err == nil {
					t.Fatalf("n=%d eps=%g: failing reinforced edge %v accepted", tc.n, tc.eps, e)
				}
				continue
			}
			for v := 0; v < g.N(); v++ {
				got, err := o.DistAvoiding(v, e[0], e[1])
				if err != nil {
					t.Fatal(err)
				}
				want, err := o.DistAvoidingRef(v, e[0], e[1])
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("n=%d eps=%g seed=%d: DistAvoiding(%d, %d, %d) = %d, reference %d",
						tc.n, tc.eps, tc.seed, v, e[0], e[1], got, want)
				}
			}
		}
	}
}

// TestDistAvoidingManyGroupedMatchesReference drives the grouped batch path
// with shuffled query vectors that repeat failed edges, so the
// repair-once-serve-many reuse is exercised and compared answer-for-answer
// with the reference oracle.
func TestDistAvoidingManyGroupedMatchesReference(t *testing.T) {
	g, edges := buildRandom(80, 100, 9)
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	o := st.Oracle()
	rng := rand.New(rand.NewSource(99))
	var failable [][2]int
	for _, e := range edges {
		if !st.IsReinforced(e[0], e[1]) {
			failable = append(failable, e)
		}
	}
	for round := 0; round < 10; round++ {
		queries := make([]ftbfs.FailureQuery, 48)
		for i := range queries {
			e := failable[rng.Intn(min(8+round, len(failable)))] // heavy duplication
			queries[i] = ftbfs.FailureQuery{V: rng.Intn(g.N()), FailedU: e[0], FailedV: e[1]}
		}
		got, err := o.DistAvoidingMany(queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want, err := o.DistAvoidingRef(q.V, q.FailedU, q.FailedV)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("round %d query %d (%+v): batched %d, reference %d", round, i, q, got[i], want)
			}
		}
	}
}

// TestDistAvoidingManyResumesOneRepair serves every target of one failure
// from a single resumable repair run, in the order that stresses resuming:
// the deepest reachable target first, then ever shallower ones, then the
// targets the failure disconnects. Every answer must equal the reference,
// for edge failures here and vertex failures in the vertex corpus.
func TestDistAvoidingManyResumesOneRepair(t *testing.T) {
	for _, tc := range []struct{ n, extra int }{{50, 0}, {70, 40}, {70, 140}} {
		g, edges := buildRandom(tc.n, tc.extra, int64(tc.extra))
		st, err := ftbfs.Build(g, 0, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		plan, o := st.Plan(), st.Oracle()
		for _, e := range edges {
			if !plan.IsTreeEdge(e[0], e[1]) || st.IsReinforced(e[0], e[1]) {
				continue
			}
			c := e[1]
			if st.Dist(e[0]) > st.Dist(e[1]) {
				c = e[0]
			}
			queries, want := deepestFirst(t, g.N(), func(v int) bool { return v == c || plan.OnTreePath(c, v) },
				func(v int) ftbfs.FailureQuery { return ftbfs.FailureQuery{V: v, FailedU: e[0], FailedV: e[1]} },
				func(v int) (int, error) { return o.DistAvoidingRef(v, e[0], e[1]) })
			checkMany(t, o, queries, want)
		}
	}
	for name, tc := range vertexCorpus() {
		st, err := ftbfs.BuildVertex(tc.g, tc.source)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plan, o := st.Plan(), st.Oracle()
		for w := 0; w < tc.g.N(); w++ {
			if w == tc.source || plan.SubtreeSizeVertex(w) == 0 {
				continue
			}
			queries, want := deepestFirst(t, tc.g.N(), func(v int) bool { return plan.OnTreePath(w, v) },
				func(v int) ftbfs.FailureQuery { return ftbfs.FailureQuery{V: v, FailedU: w, Vertex: true} },
				func(v int) (int, error) { return o.DistAvoidingVertexRef(v, w) })
			checkMany(t, o, queries, want)
		}
	}
}

// deepestFirst returns one query per target v with below(v), with its
// reference answer, ordered from the deepest answer down and disconnected
// targets last.
func deepestFirst(t *testing.T, n int, below func(int) bool, query func(int) ftbfs.FailureQuery, ref func(int) (int, error)) ([]ftbfs.FailureQuery, []int) {
	t.Helper()
	ans := make([]int, n)
	var targets []int
	for v := 0; v < n; v++ {
		if !below(v) {
			continue
		}
		d, err := ref(v)
		if err != nil {
			t.Fatal(err)
		}
		ans[v] = d
		targets = append(targets, v)
	}
	rank := func(v int) int {
		if ans[v] == ftbfs.Unreachable {
			return -1
		}
		return ans[v]
	}
	slices.SortStableFunc(targets, func(a, b int) int { return rank(b) - rank(a) })
	queries, want := make([]ftbfs.FailureQuery, len(targets)), make([]int, len(targets))
	for i, v := range targets {
		queries[i], want[i] = query(v), ans[v]
	}
	return queries, want
}

// checkMany answers queries in one DistAvoidingMany call and compares each
// answer with want.
func checkMany(t *testing.T, o *ftbfs.Oracle, queries []ftbfs.FailureQuery, want []int) {
	t.Helper()
	got, err := o.DistAvoidingMany(queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if got[i] != want[i] {
			t.Fatalf("query %d of %d (%+v): batched %d, reference %d", i, len(queries), q, got[i], want[i])
		}
	}
}

// TestDistAvoidingManyValidatesUpFront asserts the whole batch is validated
// before any result is published: a bad query anywhere must leave out
// untouched.
func TestDistAvoidingManyValidatesUpFront(t *testing.T) {
	g := ringWithChords(16)
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	o := st.Oracle()
	bad := []ftbfs.FailureQuery{
		{V: 1, FailedU: 0, FailedV: 1},
		{V: 2, FailedU: 1, FailedV: 2},
		{V: 3, FailedU: 0, FailedV: 7}, // not an edge
		{V: 4, FailedU: 2, FailedV: 3},
	}
	const sentinel = -12345
	out := make([]int, len(bad))
	for i := range out {
		out[i] = sentinel
	}
	if _, err := o.DistAvoidingMany(bad, out); err == nil {
		t.Fatal("batch with a non-edge failure accepted")
	}
	for i, d := range out {
		if d != sentinel {
			t.Fatalf("out[%d] = %d was published despite the batch error", i, d)
		}
	}
}

// TestQueryPlanConcurrentMatchesReference hammers the pooled plan path from
// many goroutines (run under -race in CI) against reference answers computed
// serially, covering the lazily built plan, the shared intact vector, and
// per-oracle repair scratches.
func TestQueryPlanConcurrentMatchesReference(t *testing.T) {
	g, edges := buildRandom(90, 120, 17)
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	type q struct{ v, fu, fv, want int }
	ref := st.Oracle()
	var qs []q
	for i, e := range edges {
		if st.IsReinforced(e[0], e[1]) {
			continue
		}
		v := (i * 37) % g.N()
		want, err := ref.DistAvoidingRef(v, e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q{v, e[0], e[1], want})
	}
	pool := st.OraclePool()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs)*4; i += 8 {
				qq := qs[i%len(qs)]
				err := pool.Do(func(o *ftbfs.Oracle) error {
					got, err := o.DistAvoiding(qq.v, qq.fu, qq.fv)
					if err != nil {
						return err
					}
					if got != qq.want {
						t.Errorf("concurrent DistAvoiding(%d,%d,%d) = %d, want %d", qq.v, qq.fu, qq.fv, got, qq.want)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestQueryPlanClassifiers sanity-checks the exported plan diagnostics: a
// BFS-tree edge must classify as a tree edge with a positive affected
// subtree, everything else as O(1).
func TestQueryPlanClassifiers(t *testing.T) {
	g, edges := buildRandom(50, 60, 21)
	st, err := ftbfs.Build(g, 0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	plan := st.Plan()
	if plan != st.Plan() {
		t.Fatal("Plan is not cached")
	}
	o := st.Oracle()
	trees, flats := 0, 0
	for _, e := range edges {
		if st.IsReinforced(e[0], e[1]) {
			continue
		}
		isTree := plan.IsTreeEdge(e[0], e[1])
		size := plan.SubtreeSize(e[0], e[1])
		if isTree != (size > 0) {
			t.Fatalf("edge %v: IsTreeEdge=%v but SubtreeSize=%d", e, isTree, size)
		}
		if isTree {
			trees++
			continue
		}
		flats++
		// Non-tree failures must not change any distance at all.
		for v := 0; v < g.N(); v += 7 {
			got, err := o.DistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			if got != st.Dist(v) {
				t.Fatalf("non-tree failure %v changed dist(%d): %d != %d", e, v, got, st.Dist(v))
			}
		}
	}
	if trees == 0 || flats == 0 {
		t.Fatalf("degenerate classification: %d tree edges, %d non-tree", trees, flats)
	}
}
