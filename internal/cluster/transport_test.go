package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ftbfs"
	"ftbfs/internal/server"
	"ftbfs/internal/store"
	"ftbfs/internal/telemetry"
)

// queryRoutes are the shard endpoints the router reaches only over the
// binary protocol.
var queryRoutes = []string{"/dist", "/dist-avoiding", "/dist-avoiding-vertex", "/batch-query", "/mutate"}

// TestRouterSendsNoQueryHTTPToShards drives every routed query kind and a
// mutation through a cluster with every point read sampled for tracing,
// then reads each shard's own HTTP request histograms: none of the query or
// mutation endpoints may have seen a request. The traced reads ride the
// wire too, and still come back with the shard's spans folded in.
func TestRouterSendsNoQueryHTTPToShards(t *testing.T) {
	lc, err := StartLocal(3, LocalOptions{Replicas: 2, Router: RouterOptions{TraceSample: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	g, edges := clusterGraph(40, 60, 71)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	var br server.BuildResponse
	code, body := postJSON(t, lc.URL()+"/build", server.BuildRequest{
		Graph: text.String(), Sources: []int{0}, Eps: []float64{0.3}, VertexSources: []int{0},
	}, &br)
	if code != http.StatusOK {
		t.Fatalf("/build: %d %s", code, body)
	}
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	vst, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var failable, nonH [2]int
	for _, e := range edges {
		if st.Contains(e[0], e[1]) && !st.IsReinforced(e[0], e[1]) {
			failable = e
		}
		if !st.Contains(e[0], e[1]) {
			nonH = e
		}
	}
	v := g.N() - 1
	wantEdge, err := st.Oracle().DistAvoiding(v, failable[0], failable[1])
	if err != nil {
		t.Fatal(err)
	}
	wantVertex, err := vst.Oracle().DistAvoidingVertex(v, 1)
	if err != nil {
		t.Fatal(err)
	}

	before := routerStats(t, lc)
	base := fmt.Sprintf("graph=%s&source=0&eps=0.3&v=%d", br.Fingerprint, v)
	for _, c := range []struct {
		url  string
		want int
	}{
		{lc.URL() + "/dist?" + base, st.Oracle().Dist(v)},
		{fmt.Sprintf("%s/dist-avoiding?%s&fu=%d&fv=%d", lc.URL(), base, failable[0], failable[1]), wantEdge},
		{lc.URL() + "/dist-avoiding-vertex?" + base + "&fw=1", wantVertex},
	} {
		var dr struct {
			Dist int `json:"dist"`
		}
		if code, body := getJSON(t, c.url, &dr); code != http.StatusOK || dr.Dist != c.want {
			t.Fatalf("GET %s: %d %s, want dist %d", c.url, code, body, c.want)
		}
	}
	src, eps, fw := 0, 0.3, 1
	var bresp server.BatchQueryResponse
	code, body = postJSON(t, lc.URL()+"/batch-query", server.BatchQueryRequest{
		Graph: br.Fingerprint, Source: src, Eps: &eps, Queries: []server.BatchQuery{
			{V: v, Fail: failable},
			{Source: &src, V: v, FailedVertex: &fw},
		}}, &bresp)
	if code != http.StatusOK || bresp.Errors != nil || bresp.Dists[0] != wantEdge || bresp.Dists[1] != wantVertex {
		t.Fatalf("/batch-query: %d %s", code, body)
	}
	code, _, body, err = mutateVia(http.DefaultClient, lc.URL(), br.Fingerprint,
		[]server.MutationJSON{{Op: "delete", U: nonH[0], V: nonH[1]}})
	if err != nil || code != http.StatusOK {
		t.Fatalf("/mutate: %d %s %v", code, body, err)
	}

	after := routerStats(t, lc)
	if after.WirePoints-before.WirePoints < 3 || after.WireBatches == before.WireBatches || after.WireMutations == before.WireMutations {
		t.Errorf("wire counters moved points %d->%d batches %d->%d mutations %d->%d, want every kind on the wire",
			before.WirePoints, after.WirePoints, before.WireBatches, after.WireBatches, before.WireMutations, after.WireMutations)
	}
	traced := 0
	for _, rec := range traceRecords(t, lc.URL()+"/debug/traces") {
		names := strings.Join(spanNames(rec), ",")
		if strings.Contains(names, "router.handle") && strings.Contains(names, ":shard.wire") {
			traced++
		}
	}
	if traced < 3 {
		t.Errorf("router retained %d traces with router.handle and a <shard>:shard.wire span, want one per sampled point read", traced)
	}

	for _, sh := range lc.Shards {
		var snap telemetry.Snapshot
		if err := json.Unmarshal([]byte(getBody(t, sh.ts.URL+"/metrics.json")), &snap); err != nil {
			t.Fatalf("shard %s /metrics.json: %v", sh.ID, err)
		}
		for _, route := range queryRoutes {
			prefix := `ftbfs_http_request_seconds{route="` + route + `",`
			for series, h := range snap.Hists {
				if strings.HasPrefix(series, prefix) && h.Count() > 0 {
					t.Errorf("shard %s served %d HTTP requests on %s", sh.ID, h.Count(), route)
				}
			}
		}
	}
}

// routerStats reads the router's /stats.
func routerStats(t testing.TB, lc *LocalCluster) RouterStatsResponse {
	t.Helper()
	var rs RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	return rs
}

// TestRouterRejectsIncompletePointRequests sends point requests that each
// miss one required field to the router and to a single node: the router
// answers them itself, with the single node's exact status and body.
func TestRouterRejectsIncompletePointRequests(t *testing.T) {
	lc, err := StartLocal(2, LocalOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	st, err := store.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(server.New(st))
	defer single.Close()

	const graph = "graph=00000000000000ab&source=0&eps=0.3"
	for _, c := range []struct{ path, query, body string }{
		{"/dist", graph, ""},
		{"/dist-avoiding", graph + "&fu=0&fv=1", ""},
		{"/dist-avoiding", graph + "&v=3", ""},
		{"/dist-avoiding", "", `{"graph":"00000000000000ab","v":3}`},
		{"/dist-avoiding-vertex", graph + "&fw=1", ""},
		{"/dist-avoiding-vertex", graph + "&v=3", ""},
	} {
		send := func(base string) (int, string) {
			var resp *http.Response
			var err error
			if c.body != "" {
				resp, err = http.Post(base+c.path, "application/json", strings.NewReader(c.body))
			} else {
				resp, err = http.Get(base + c.path + "?" + c.query)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, string(b)
		}
		rcode, rbody := send(lc.URL())
		scode, sbody := send(single.URL)
		if rcode != http.StatusBadRequest || rcode != scode || rbody != sbody {
			t.Errorf("%s?%s %s: router %d %q, single node %d %q", c.path, c.query, c.body, rcode, rbody, scode, sbody)
		}
	}
	if rs := routerStats(t, lc); rs.PointQueries != 0 {
		t.Errorf("router routed %d incomplete point queries to shards", rs.PointQueries)
	}
}

// TestRetryableSlotError pins which per-slot batch errors send a slot to its
// next replica: shard state — a cold replica, a broken disk, or the shard's
// request context ending under a listener shutdown — retries, while a
// verdict on the query itself is final.
func TestRetryableSlotError(t *testing.T) {
	for msg, want := range map[string]bool{
		(&server.UnknownGraphError{Fingerprint: 7}).Error(): true,
		store.PersistPrefix + "write failed":                true,
		"context canceled":                                  true,
		"context deadline exceeded":                         true,
		"ftbfs: {0,1} is not an edge of the base graph":     false,
		"vertex 99 out of range [0,60)":                     false,
	} {
		if got := retryableSlotError(msg); got != want {
			t.Errorf("retryableSlotError(%q) = %v, want %v", msg, got, want)
		}
	}
}
