package server

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"ftbfs"
	"ftbfs/internal/store"
	"ftbfs/internal/wire"
)

// newWireServer starts one Server behind both transports: an httptest HTTP
// listener and a loopback binary-protocol listener, with a connected client.
func newWireServer(t testing.TB) (*httptest.Server, *wire.Client, *store.Store) {
	t.Helper()
	st, err := store.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = wire.Serve(ctx, ln, srv) }()
	wc := wire.NewClient(ln.Addr().String(), 2)
	t.Cleanup(wc.Close)
	return ts, wc, st
}

// TestWireDifferentialVsHTTPAndOracle is the transport-equivalence gate:
// for every failable edge and every failable vertex, the binary protocol,
// the HTTP/JSON endpoint, and the in-process oracle must agree exactly.
func TestWireDifferentialVsHTTPAndOracle(t *testing.T) {
	ts, wc, st := newWireServer(t)
	g := testGraph(t, 50, 75, 31)
	fp, err := st.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	fpHex := fmt.Sprintf("%016x", fp)
	eps := 0.3
	est, err := ftbfs.Build(g, 0, eps)
	if err != nil {
		t.Fatal(err)
	}
	vst, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	eo, vo := est.Oracle(), vst.Oracle()
	ctx := context.Background()
	epsBits := math.Float64bits(eps)

	// Intact distances.
	for v := 0; v < g.N(); v++ {
		d, werr, err := wc.Point(ctx, wire.TDist, &wire.PointQuery{
			FP: fp, EpsBits: epsBits, Source: 0, V: int32(v), A: -1, B: -1,
		})
		if err != nil || werr != nil {
			t.Fatalf("wire dist(%d): %v %v", v, err, werr)
		}
		if int(d) != eo.Dist(v) {
			t.Fatalf("wire dist(%d) = %d, oracle says %d", v, d, eo.Dist(v))
		}
	}

	// Every failable edge, two targets each, against both HTTP and oracle.
	for i, e := range est.Edges() {
		if est.IsReinforced(e[0], e[1]) {
			continue
		}
		for _, v := range []int{(i * 13) % g.N(), e[1]} {
			want, err := eo.DistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			d, werr, err := wc.Point(ctx, wire.TDistAvoiding, &wire.PointQuery{
				FP: fp, EpsBits: epsBits, Source: 0, V: int32(v), A: int32(e[0]), B: int32(e[1]),
			})
			if err != nil || werr != nil {
				t.Fatalf("wire dist-avoiding(v=%d, e={%d,%d}): %v %v", v, e[0], e[1], err, werr)
			}
			var dr distResponse
			code, body := getJSON(t, fmt.Sprintf("%s/dist-avoiding?graph=%s&eps=%g&v=%d&fu=%d&fv=%d",
				ts.URL, fpHex, eps, v, e[0], e[1]), &dr)
			if code != http.StatusOK {
				t.Fatalf("HTTP dist-avoiding: %d %s", code, body)
			}
			if int(d) != want || dr.Dist != want {
				t.Fatalf("dist-avoiding(v=%d, e={%d,%d}): wire=%d http=%d oracle=%d",
					v, e[0], e[1], d, dr.Dist, want)
			}
		}
	}

	// Every failable vertex, two targets each.
	for w := 1; w < g.N(); w++ {
		for _, v := range []int{w, (w + 11) % g.N()} {
			want, err := vo.DistAvoidingVertex(v, w)
			if err != nil {
				t.Fatal(err)
			}
			d, werr, err := wc.Point(ctx, wire.TDistAvoidingVertex, &wire.PointQuery{
				FP: fp, Source: 0, V: int32(v), A: int32(w), B: -1,
			})
			if err != nil || werr != nil {
				t.Fatalf("wire dist-avoiding-vertex(v=%d, w=%d): %v %v", v, w, err, werr)
			}
			var dr distResponse
			code, body := getJSON(t, fmt.Sprintf("%s/dist-avoiding-vertex?graph=%s&v=%d&fw=%d",
				ts.URL, fpHex, v, w), &dr)
			if code != http.StatusOK {
				t.Fatalf("HTTP dist-avoiding-vertex: %d %s", code, body)
			}
			if int(d) != want || dr.Dist != want {
				t.Fatalf("dist-avoiding-vertex(v=%d, w=%d): wire=%d http=%d oracle=%d",
					v, w, d, dr.Dist, want)
			}
		}
	}
}

// TestWireBatchMatchesHTTPBatch sends the same mixed edge/vertex batch —
// good slots and bad — down both transports and requires identical answers
// slot for slot, including error text.
func TestWireBatchMatchesHTTPBatch(t *testing.T) {
	ts, wc, st := newWireServer(t)
	g := testGraph(t, 40, 60, 32)
	fp, err := st.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	fpHex := fmt.Sprintf("%016x", fp)
	eps := 0.3
	est, err := ftbfs.Build(g, 0, eps)
	if err != nil {
		t.Fatal(err)
	}
	var fe [2]int
	for _, e := range est.Edges() {
		if !est.IsReinforced(e[0], e[1]) {
			fe = e
			break
		}
	}
	epsBits := math.Float64bits(eps)
	point := func(v, a, b int) wire.PointQuery {
		return wire.PointQuery{FP: fp, EpsBits: epsBits, Source: 0, V: int32(v), A: int32(a), B: int32(b)}
	}
	vpoint := func(v, w int) wire.PointQuery {
		return wire.PointQuery{FP: fp, Source: 0, V: int32(v), A: int32(w), B: -1}
	}
	negZero, stray, src99 := math.Copysign(0, -1), 0.7, 99
	negZeroEps := point(7, fe[0], fe[1])
	negZeroEps.EpsBits = math.Float64bits(negZero)
	strayEps := vpoint(11, 5)
	strayEps.EpsBits = math.Float64bits(stray)
	badSource := point(7, fe[0], fe[1])
	badSource.Source = int32(src99)
	slots := []wire.BatchSlot{
		{PointQuery: point(7, fe[0], fe[1])},
		{PointQuery: vpoint(11, 5), Vertex: true},
		{PointQuery: vpoint(5, 5), Vertex: true},
		{PointQuery: point(1, 0, 0)},             // bad: not an edge
		{PointQuery: vpoint(2, 0), Vertex: true}, // bad: the source cannot fail
		{PointQuery: point(39, fe[1], fe[0])},    // reversed endpoints, same edge
		{PointQuery: negZeroEps},                 // eps -0 folds into +0
		{PointQuery: strayEps, Vertex: true},     // a vertex slot ignores eps
		{PointQuery: badSource},                  // bad: source out of range
	}
	dists, werrs, werr, err := wc.Batch(context.Background(), slots)
	if err != nil || werr != nil {
		t.Fatalf("wire batch: %v %v", err, werr)
	}

	fw, fwSrc := 5, 0
	httpReq := BatchQueryRequest{Graph: fpHex, Eps: &eps, Queries: []BatchQuery{
		{V: 7, Fail: fe},
		{V: 11, FailedVertex: &fw},
		{V: 5, FailedVertex: &fw},
		{V: 1, Fail: [2]int{0, 0}},
		{V: 2, FailedVertex: &fwSrc},
		{V: 39, Fail: [2]int{fe[1], fe[0]}},
		{V: 7, Eps: &negZero, Fail: fe},
		{V: 11, Eps: &stray, FailedVertex: &fw},
		{V: 7, Source: &src99, Fail: fe},
	}}
	var httpResp BatchQueryResponse
	code, body := postJSON(t, ts.URL+"/batch-query", httpReq, &httpResp)
	if code != http.StatusOK {
		t.Fatalf("HTTP batch: %d %s", code, body)
	}
	if len(dists) != len(slots) || len(httpResp.Dists) != len(slots) {
		t.Fatalf("slot counts: wire %d, http %d, want %d", len(dists), len(httpResp.Dists), len(slots))
	}
	for i := range slots {
		if int(dists[i]) != httpResp.Dists[i] {
			t.Fatalf("slot %d: wire dist %d != http dist %d", i, dists[i], httpResp.Dists[i])
		}
		we := ""
		if werrs != nil {
			we = werrs[i]
		}
		he := ""
		if httpResp.Errors != nil {
			he = httpResp.Errors[i]
		}
		if we != he {
			t.Fatalf("slot %d: wire error %q != http error %q", i, we, he)
		}
	}
	if werrs == nil || werrs[3] == "" || werrs[4] == "" || werrs[8] == "" {
		t.Fatalf("bad slots did not error over wire: %v", werrs)
	}
}

// TestWireErrorStatuses checks the RError status codes mirror the HTTP
// statuses for the same failures.
func TestWireErrorStatuses(t *testing.T) {
	_, wc, st := newWireServer(t)
	g := testGraph(t, 20, 25, 33)
	fp, err := st.AddGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	epsBits := math.Float64bits(0.3)

	// Unknown graph → 404.
	_, werr, err := wc.Point(ctx, wire.TDist, &wire.PointQuery{
		FP: fp + 1, EpsBits: epsBits, V: 1, A: -1, B: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if werr == nil || werr.Code != http.StatusNotFound {
		t.Fatalf("unknown graph: %v, want code 404", werr)
	}
	// Out-of-range vertex → 400.
	_, werr, err = wc.Point(ctx, wire.TDist, &wire.PointQuery{
		FP: fp, EpsBits: epsBits, V: 99999, A: -1, B: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if werr == nil || werr.Code != http.StatusBadRequest {
		t.Fatalf("bad vertex: %v, want code 400", werr)
	}
	// Source failure on the vertex model → 400.
	_, werr, err = wc.Point(ctx, wire.TDistAvoidingVertex, &wire.PointQuery{
		FP: fp, V: 1, A: 0, B: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if werr == nil || werr.Code != http.StatusBadRequest {
		t.Fatalf("source failure: %v, want code 400", werr)
	}
	// Non-finite ε is rejected before touching the store.
	_, werr, err = wc.Point(ctx, wire.TDistAvoiding, &wire.PointQuery{
		FP: fp, EpsBits: math.Float64bits(math.Inf(1)), V: 1, A: 0, B: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if werr == nil || werr.Code != http.StatusBadRequest {
		t.Fatalf("inf eps: %v, want code 400", werr)
	}
	// A handoff key goes through the same key checks as a query: an unknown
	// algorithm code or a NaN ε is a malformed key (400, as on
	// GET /handoff/record), not a structure this shard happens not to hold.
	for _, k := range []wire.HandoffKey{
		{FP: fp, EpsBits: epsBits, Alg: 99},
		{FP: fp, EpsBits: math.Float64bits(math.NaN())},
	} {
		_, werr, err := wc.FetchRecord(ctx, &k)
		if err != nil {
			t.Fatal(err)
		}
		if werr == nil || werr.Code != http.StatusBadRequest {
			t.Fatalf("handoff key %+v: %v, want code 400", k, werr)
		}
	}
}
