package ftbfs_test

import (
	"sync"
	"testing"

	"ftbfs"
)

// failableEdges returns the structure edges that are allowed to fail.
func failableEdges(st *ftbfs.Structure) [][2]int {
	var out [][2]int
	for _, e := range st.Edges() {
		if !st.IsReinforced(e[0], e[1]) {
			out = append(out, e)
		}
	}
	return out
}

func TestOracleDistCachedAcrossFailureQueries(t *testing.T) {
	g := randomGraph(60, 80, 11)
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	o := st.Oracle()
	want := make([]int, g.N())
	for v := range want {
		want[v] = o.Dist(v)
	}
	// Interleave failure queries, which reuse the oracle's scratch, then
	// re-read the intact distances: the cache must be unaffected.
	for _, e := range failableEdges(st)[:4] {
		if _, err := o.DistAvoiding(0, e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for v := range want {
		if got := o.Dist(v); got != want[v] {
			t.Fatalf("Dist(%d) = %d after failure queries, want %d", v, got, want[v])
		}
	}
	// A second oracle of the same structure shares the cached vector.
	o2 := st.Oracle()
	for v := range want {
		if got := o2.Dist(v); got != want[v] {
			t.Fatalf("second oracle: Dist(%d) = %d, want %d", v, got, want[v])
		}
	}
}

func TestDistAvoidingManyMatchesSerial(t *testing.T) {
	g := randomGraph(80, 120, 5)
	st, err := ftbfs.Build(g, 0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	o := st.Oracle()
	var queries []ftbfs.FailureQuery
	for i, e := range failableEdges(st) {
		queries = append(queries, ftbfs.FailureQuery{V: (i * 7) % g.N(), FailedU: e[0], FailedV: e[1]})
	}
	got, err := o.DistAvoidingMany(queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := o.DistAvoiding(q.V, q.FailedU, q.FailedV)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("query %d (%+v): batched %d, serial %d", i, q, got[i], want)
		}
	}
}

func TestDistAvoidingManyRejectsBadQueries(t *testing.T) {
	g := ringWithChords(12)
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	o := st.Oracle()
	if _, err := o.DistAvoidingMany([]ftbfs.FailureQuery{{V: 1, FailedU: 0, FailedV: 5}}, nil); err == nil {
		t.Fatal("non-edge failure accepted")
	}
	if _, err := o.DistAvoidingMany([]ftbfs.FailureQuery{{V: -1, FailedU: 0, FailedV: 1}}, nil); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := o.DistAvoidingMany(make([]ftbfs.FailureQuery, 2), make([]int, 1)); err == nil {
		t.Fatal("mis-sized out accepted")
	}
	// The point, reference and baseline queries reject an out-of-range
	// target with an error, like the batch paths.
	e := failableEdges(st)[0]
	for _, v := range []int{-1, g.N()} {
		if _, err := o.DistAvoiding(v, e[0], e[1]); err == nil {
			t.Fatalf("DistAvoiding: target %d accepted", v)
		}
		if _, err := o.DistAvoidingRef(v, e[0], e[1]); err == nil {
			t.Fatalf("DistAvoidingRef: target %d accepted", v)
		}
		if _, err := o.BaselineDistAvoiding(v, e[0], e[1]); err == nil {
			t.Fatalf("BaselineDistAvoiding: target %d accepted", v)
		}
	}
}

func TestDistAvoidingEachPartialResults(t *testing.T) {
	g := randomGraph(80, 120, 5)
	st, err := ftbfs.Build(g, 0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	o := st.Oracle()
	edges := failableEdges(st)
	// Interleave valid queries with every class of invalid one.
	queries := []ftbfs.FailureQuery{
		{V: 3, FailedU: edges[0][0], FailedV: edges[0][1]},
		{V: -1, FailedU: edges[0][0], FailedV: edges[0][1]}, // bad target
		{V: 7, FailedU: edges[1][0], FailedV: edges[1][1]},
		{V: 9, FailedU: 0, FailedV: 0},                         // not an edge
		{V: g.N(), FailedU: edges[2][0], FailedV: edges[2][1]}, // bad target (high)
		{V: 11, FailedU: edges[2][0], FailedV: edges[2][1]},
		{V: 5, FailedU: 1, Vertex: true}, // a vertex failure: wrong model
	}
	dists, errs := o.DistAvoidingEach(queries, nil, nil)
	if len(dists) != len(queries) || len(errs) != len(queries) {
		t.Fatalf("got %d dists / %d errs for %d queries", len(dists), len(errs), len(queries))
	}
	for i, q := range queries {
		bad := i == 1 || i == 3 || i == 4 || i == 6
		if bad {
			if errs[i] == nil {
				t.Fatalf("query %d (%+v): invalid query got no error", i, q)
			}
			if dists[i] != ftbfs.Unreachable {
				t.Fatalf("query %d: errored slot holds dist %d, want Unreachable", i, dists[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("query %d (%+v): unexpected error %v", i, q, errs[i])
		}
		want, err := o.DistAvoiding(q.V, q.FailedU, q.FailedV)
		if err != nil {
			t.Fatal(err)
		}
		if dists[i] != want {
			t.Fatalf("query %d: got %d, want %d", i, dists[i], want)
		}
	}
	// Many fails the whole call on the wrong-model slot.
	if _, err := o.DistAvoidingMany(queries[5:], nil); err == nil {
		t.Fatal("Many accepted a vertex failure on an edge structure")
	}
	// A reinforced edge must be rejected per-slot too.
	for _, e := range st.ReinforcedEdges() {
		_, errs := o.DistAvoidingEach([]ftbfs.FailureQuery{{V: 1, FailedU: e[0], FailedV: e[1]}}, nil, nil)
		if errs[0] == nil {
			t.Fatal("reinforced-edge failure accepted")
		}
		break
	}
}

func TestOraclePoolConcurrentMatchesSerial(t *testing.T) {
	g := randomGraph(100, 160, 23)
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	edges := failableEdges(st)

	// Serial ground truth with a dedicated oracle.
	serial := st.Oracle()
	type q struct {
		v, fu, fv int
		want      int
	}
	var qs []q
	for i, e := range edges {
		v := (i * 13) % g.N()
		d, err := serial.DistAvoiding(v, e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q{v, e[0], e[1], d})
	}

	if st.OraclePool() != st.OraclePool() {
		t.Fatal("OraclePool is not idempotent")
	}
	pool := st.OraclePool()
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
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
					if o.Dist(qq.v) < 0 {
						t.Errorf("negative intact distance")
					}
					return nil
				})
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
