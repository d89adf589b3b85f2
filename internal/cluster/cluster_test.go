package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"ftbfs"
	"ftbfs/internal/server"
)

// clusterGraph builds a deterministic connected random graph and returns it
// with its edge list (the root Graph type does not expose edges).
func clusterGraph(n, extra int, seed int64) (*ftbfs.Graph, [][2]int) {
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

func getJSON(t testing.TB, url string, out any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("bad response %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func postJSON(t testing.TB, url string, body, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("bad response %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

// fixture is one structure served by the cluster plus its single-node
// ground truth.
type fixture struct {
	fp     string
	source int
	eps    float64
	oracle *ftbfs.Oracle
	n      int
	// failable base-graph edges (not reinforced in the ground truth).
	edges [][2]int
}

// buildFixtures registers graphs with the cluster via the router's /build
// and builds identical single-node ground truths.
func buildFixtures(t testing.TB, url string, seeds []int64, sources []int, eps float64) []fixture {
	t.Helper()
	var out []fixture
	for _, seed := range seeds {
		g, edges := clusterGraph(60, 90, seed)
		var text bytes.Buffer
		if err := g.Write(&text); err != nil {
			t.Fatal(err)
		}
		var resp server.BuildResponse
		code, body := postJSON(t, url+"/build", server.BuildRequest{
			Graph:   text.String(),
			Sources: sources,
			Eps:     []float64{eps},
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("/build via router: %d %s", code, body)
		}
		if len(resp.Structures) != len(sources) {
			t.Fatalf("router built %d structures, want %d", len(resp.Structures), len(sources))
		}
		for _, src := range sources {
			truth, err := ftbfs.Build(g, src, eps)
			if err != nil {
				t.Fatal(err)
			}
			var failable [][2]int
			for _, e := range edges {
				if !truth.IsReinforced(e[0], e[1]) {
					failable = append(failable, e)
				}
			}
			out = append(out, fixture{
				fp:     resp.Fingerprint,
				source: src,
				eps:    eps,
				oracle: truth.Oracle(),
				n:      g.N(),
				edges:  failable,
			})
		}
	}
	return out
}

// checkPoint asserts one routed /dist-avoiding answer against the
// single-node oracle.
func checkPoint(t testing.TB, url string, fx fixture, v int, e [2]int) {
	t.Helper()
	want, err := fx.oracle.DistAvoiding(v, e[0], e[1])
	if err != nil {
		t.Fatal(err)
	}
	var dr struct {
		Dist int `json:"dist"`
	}
	q := fmt.Sprintf("%s/dist-avoiding?graph=%s&source=%d&eps=%g&v=%d&fu=%d&fv=%d",
		url, fx.fp, fx.source, fx.eps, v, e[0], e[1])
	code, body := getJSON(t, q, &dr)
	if code != http.StatusOK {
		t.Fatalf("routed /dist-avoiding: %d %s (%s)", code, body, q)
	}
	if dr.Dist != want {
		t.Fatalf("routed dist-avoiding(v=%d, fail={%d,%d}) = %d, single-node oracle says %d",
			v, e[0], e[1], dr.Dist, want)
	}
}

// TestRouterDifferentialVsSingleNode is the cluster correctness gate: every
// failure query through a 4-shard / replication-2 cluster must answer
// exactly what a single-node Oracle.DistAvoiding answers.
func TestRouterDifferentialVsSingleNode(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	fixtures := buildFixtures(t, lc.URL(), []int64{11, 12}, []int{0, 5}, 0.3)

	// Replication factor 2 really landed every structure on two stores.
	total := 0
	for _, sh := range lc.Shards {
		total += sh.Store.Len()
	}
	if want := len(fixtures) * 2; total != want {
		t.Fatalf("shards hold %d structures in total, want %d (R=2 × %d)", total, want, len(fixtures))
	}

	for _, fx := range fixtures {
		// Intact distances through the router.
		for v := 0; v < fx.n; v += 7 {
			var dr struct {
				Dist int `json:"dist"`
			}
			code, body := getJSON(t, fmt.Sprintf("%s/dist?graph=%s&source=%d&eps=%g&v=%d",
				lc.URL(), fx.fp, fx.source, fx.eps, v), &dr)
			if code != http.StatusOK {
				t.Fatalf("routed /dist: %d %s", code, body)
			}
			if want := fx.oracle.Dist(v); dr.Dist != want {
				t.Fatalf("routed dist(%d) = %d, want %d", v, dr.Dist, want)
			}
		}
		// Every failable edge, two targets each.
		for i, e := range fx.edges {
			checkPoint(t, lc.URL(), fx, (i*13)%fx.n, e)
			checkPoint(t, lc.URL(), fx, e[1], e)
		}
	}

	// An unknown graph is 404 on every replica; the router retries it as
	// possibly-cold shard state and relays the 404 when all replicas agree
	// — not a 502.
	if code, _ := getJSON(t, lc.URL()+"/dist?graph=ffffffffffffffff&v=1", nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph through router: %d, want 404", code)
	}
	// A deterministic client error (bad vertex) must be relayed from the
	// first replica without burning the rest.
	var rsBefore RouterStatsResponse
	getJSON(t, lc.URL()+"/stats", &rsBefore)
	if code, _ := getJSON(t, fmt.Sprintf("%s/dist?graph=%s&eps=0.3&v=99999", lc.URL(), fixtures[0].fp), nil); code != http.StatusBadRequest {
		t.Fatalf("bad vertex through router: %d, want 400", code)
	}
	var rsAfter RouterStatsResponse
	getJSON(t, lc.URL()+"/stats", &rsAfter)
	if rsAfter.Failovers != rsBefore.Failovers {
		t.Fatalf("deterministic 400 burned replicas: failovers %d -> %d", rsBefore.Failovers, rsAfter.Failovers)
	}
}

// TestRouterBatchScatterGather drives a multi-structure batch through the
// router: slots spanning different structures (hence different shards),
// plus invalid slots that must come back as per-query errors.
func TestRouterBatchScatterGather(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fixtures := buildFixtures(t, lc.URL(), []int64{21, 22}, []int{0, 5}, 0.25)

	eps := 0.25
	req := server.BatchQueryRequest{Graph: fixtures[0].fp, Eps: &eps}
	type expect struct {
		dist int
		err  bool
	}
	var want []expect
	for fi := range fixtures {
		fx := &fixtures[fi]
		src := fx.source
		for i := 0; i < 6 && i < len(fx.edges); i++ {
			e := fx.edges[i]
			v := (i * 11) % fx.n
			req.Queries = append(req.Queries, server.BatchQuery{
				Graph: fx.fp, Source: &src, V: v, Fail: e,
			})
			d, err := fx.oracle.DistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, expect{dist: d})
		}
	}
	// Invalid slots: bad target, non-edge, unknown structure.
	req.Queries = append(req.Queries,
		server.BatchQuery{V: 10_000, Fail: fixtures[0].edges[0]},
		server.BatchQuery{V: 1, Fail: [2]int{0, 0}},
		server.BatchQuery{Graph: "ffffffffffffffff", V: 1, Fail: fixtures[0].edges[0]},
	)
	want = append(want, expect{err: true}, expect{err: true}, expect{err: true})

	var resp server.BatchQueryResponse
	code, body := postJSON(t, lc.URL()+"/batch-query", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("routed /batch-query: %d %s", code, body)
	}
	if len(resp.Dists) != len(want) || len(resp.Errors) != len(want) {
		t.Fatalf("got %d dists / %d errors, want %d", len(resp.Dists), len(resp.Errors), len(want))
	}
	for i, w := range want {
		if w.err {
			if resp.Errors[i] == "" {
				t.Fatalf("slot %d: expected an error slot (%s)", i, body)
			}
			continue
		}
		if resp.Errors[i] != "" {
			t.Fatalf("slot %d: unexpected error %q", i, resp.Errors[i])
		}
		if resp.Dists[i] != w.dist {
			t.Fatalf("slot %d: routed %d, single-node oracle says %d", i, resp.Dists[i], w.dist)
		}
	}
}

// TestRouterSurvivesShardKillAndRejoin kills each shard in turn — the
// acceptance gate: with replication 2, every query must keep answering the
// single-node truth while any one shard is down, and after a rejoin.
func TestRouterSurvivesShardKillAndRejoin(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fixtures := buildFixtures(t, lc.URL(), []int64{31}, []int{0, 5}, 0.3)

	sample := func(label string) {
		for _, fx := range fixtures {
			for i := 0; i < len(fx.edges); i += 3 {
				e := fx.edges[i]
				checkPoint(t, lc.URL(), fx, (i*17)%fx.n, e)
			}
		}
		// A batch spanning both structures must also survive.
		eps := 0.3
		req := server.BatchQueryRequest{Eps: &eps}
		var want []int
		for fi := range fixtures {
			fx := &fixtures[fi]
			src := fx.source
			e := fx.edges[1]
			req.Queries = append(req.Queries, server.BatchQuery{Graph: fx.fp, Source: &src, V: e[0], Fail: e})
			d, err := fx.oracle.DistAvoiding(e[0], e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, d)
		}
		var resp server.BatchQueryResponse
		code, body := postJSON(t, lc.URL()+"/batch-query", req, &resp)
		if code != http.StatusOK {
			t.Fatalf("[%s] routed batch: %d %s", label, code, body)
		}
		if resp.Errors != nil {
			t.Fatalf("[%s] batch error slots with one shard down: %v", label, resp.Errors)
		}
		for i := range want {
			if resp.Dists[i] != want[i] {
				t.Fatalf("[%s] batch slot %d: %d, want %d", label, i, resp.Dists[i], want[i])
			}
		}
	}

	sample("all-up")
	for i := range lc.Shards {
		lc.KillShard(i)
		sample(fmt.Sprintf("shard%d-down", i))
		lc.RestartShard(i)
		sample(fmt.Sprintf("shard%d-rejoined", i))
	}
}

// TestRouterConcurrentDifferential hammers the router from many goroutines
// while a shard is killed and rejoined mid-flight; every answer must stay
// correct (run under -race in CI).
func TestRouterConcurrentDifferential(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fixtures := buildFixtures(t, lc.URL(), []int64{41}, []int{0}, 0.3)
	fx := fixtures[0]

	type q struct {
		v    int
		e    [2]int
		want int
	}
	var qs []q
	for i, e := range fx.edges {
		v := (i * 13) % fx.n
		d, err := fx.oracle.DistAvoiding(v, e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q{v: v, e: e, want: d})
	}

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := w; i < len(qs)*4; i += workers {
				qq := qs[i%len(qs)]
				url := fmt.Sprintf("%s/dist-avoiding?graph=%s&source=%d&eps=0.3&v=%d&fu=%d&fv=%d",
					lc.URL(), fx.fp, fx.source, qq.v, qq.e[0], qq.e[1])
				resp, err := client.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				var dr struct {
					Dist int `json:"dist"`
				}
				err = json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d mid-churn", resp.StatusCode)
					return
				}
				if dr.Dist != qq.want {
					t.Errorf("concurrent routed dist-avoiding(v=%d, fail=%v) = %d, want %d",
						qq.v, qq.e, dr.Dist, qq.want)
					return
				}
			}
		}()
	}
	// Churn one shard at a time while the workers run: kill, let traffic
	// fail over, rejoin.
	go func() {
		defer close(stop)
		for _, i := range []int{2, 0} {
			lc.KillShard(i)
			time.Sleep(30 * time.Millisecond)
			lc.RestartShard(i)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-stop
}

// TestRouterBuildSingleFlight launches identical concurrent /build requests
// and asserts exactly-once fan-out: each owning shard builds each structure
// once, no matter how many clients raced.
func TestRouterBuildSingleFlight(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	g, _ := clusterGraph(150, 300, 51)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	req := server.BuildRequest{Graph: text.String(), Sources: []int{0, 9}, Eps: []float64{0.25, 0.4}}

	const clients = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var resp server.BuildResponse
			code, body := postJSON(t, lc.URL()+"/build", req, &resp)
			if code != http.StatusOK {
				t.Errorf("/build: %d %s", code, body)
				return
			}
			if len(resp.Structures) != 4 {
				t.Errorf("built %d structures, want 4", len(resp.Structures))
			}
		}()
	}
	close(start)
	wg.Wait()

	// Exactly-once per replica: 4 pairs × R=2 = 8 shard-side builds in
	// total, regardless of how many of the 8 clients coalesced. (Even a
	// flight miss is absorbed by the shard store's own single-flight, so
	// this holds unconditionally — the router flight just avoids the
	// redundant fan-out traffic.)
	var shardBuilds uint64
	for _, sh := range lc.Shards {
		shardBuilds += sh.Store.Stats().Builds
	}
	if shardBuilds != 8 {
		t.Fatalf("shards performed %d builds in total, want exactly 8 (4 structures × R=2)", shardBuilds)
	}
	var rs RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	if rs.Builds+rs.BuildsCoalesced != clients {
		t.Fatalf("router flight accounting: %d builds + %d coalesced != %d clients",
			rs.Builds, rs.BuildsCoalesced, clients)
	}
	if rs.Builds == 0 {
		t.Fatal("router reports zero executed builds")
	}
}

func TestRouterStatsHealthReady(t *testing.T) {
	lc, err := StartLocal(3, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	var hr server.HealthResponse
	if code, body := getJSON(t, lc.URL()+"/healthz", &hr); code != http.StatusOK || !hr.OK || hr.Role != "router" {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	var rr RouterReadyResponse
	if code, body := getJSON(t, lc.URL()+"/readyz", &rr); code != http.StatusOK || !rr.Ready || rr.Shards != 3 {
		t.Fatalf("/readyz: %d %s", code, body)
	}
	var rs RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	if rs.Role != "router" || rs.Replicas != 2 || len(rs.Shards) != 3 {
		t.Fatalf("unexpected router stats %+v", rs)
	}
	for _, sh := range rs.Shards {
		if sh.Stats == nil || sh.Stats.Role != "shard" {
			t.Fatalf("shard stats not gathered: %+v", sh)
		}
	}

	// With every shard down and probed, the router must report not-ready.
	for i := range lc.Shards {
		lc.KillShard(i)
	}
	ctx := t.Context()
	lc.Router.Membership().ProbeAll(ctx, &http.Client{Timeout: time.Second})
	lc.Router.Membership().ProbeAll(ctx, &http.Client{Timeout: time.Second}) // second strike marks down
	if code, _ := getJSON(t, lc.URL()+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with all shards down: %d, want 503", code)
	}
	// One shard back: ready again after a probe.
	lc.RestartShard(1)
	lc.Router.Membership().ProbeAll(ctx, &http.Client{Timeout: time.Second})
	if code, _ := getJSON(t, lc.URL()+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz after rejoin: %d, want 200", code)
	}
}

// TestRouterVertexDifferential drives the vertex failure model end to end
// through a 4-shard / R=2 cluster: /build with vertexSources fans the graph
// and the vertex structures onto the ring, then every failable vertex of
// the graph is queried through the router — point reads on
// /dist-avoiding-vertex and a mixed edge+vertex /batch-query — and checked
// against a local reference oracle, including while a shard is down and
// after it rejoins.
func TestRouterVertexDifferential(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	g, _ := clusterGraph(40, 60, 21)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	const source = 0
	var br server.BuildResponse
	code, body := postJSON(t, lc.URL()+"/build", server.BuildRequest{
		Graph:         text.String(),
		Sources:       []int{source},
		Eps:           []float64{0.3},
		VertexSources: []int{source},
	}, &br)
	if code != http.StatusOK {
		t.Fatalf("/build: %d %s", code, body)
	}
	if len(br.VertexStructures) != 1 {
		t.Fatalf("built %d vertex structures, want 1", len(br.VertexStructures))
	}

	// Replication factor 2 landed the vertex structure on two shard stores.
	fpParsed := uint64(0)
	if _, err := fmt.Sscanf(br.Fingerprint, "%016x", &fpParsed); err != nil {
		t.Fatal(err)
	}
	holders := 0
	for _, sh := range lc.Shards {
		if _, ok := sh.Store.GetVertex(fpParsed, source); ok {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("%d shards hold the vertex structure, want 2 (R=2)", holders)
	}

	ref, err := ftbfs.BuildVertex(g, source)
	if err != nil {
		t.Fatal(err)
	}
	ro := ref.Oracle()
	n := g.N()
	checkAll := func(phase string) {
		t.Helper()
		for w := 0; w < n; w++ {
			if w == source {
				continue
			}
			for _, v := range []int{w, (w * 13) % n, (w + 1) % n} {
				want, err := ro.DistAvoidingVertex(v, w)
				if err != nil {
					t.Fatal(err)
				}
				var dr struct {
					Dist int `json:"dist"`
				}
				code, body := getJSON(t, fmt.Sprintf("%s/dist-avoiding-vertex?graph=%s&source=%d&v=%d&fw=%d",
					lc.URL(), br.Fingerprint, source, v, w), &dr)
				if code != http.StatusOK {
					t.Fatalf("%s: routed vertex query (v=%d, w=%d): %d %s", phase, v, w, code, body)
				}
				if dr.Dist != want {
					t.Fatalf("%s: routed dist(v=%d | w=%d failed) = %d, want %d", phase, v, w, dr.Dist, want)
				}
			}
		}
	}
	checkAll("all-up")

	// Kill each shard in turn: every vertex key keeps a live replica.
	for i := range lc.Shards {
		lc.KillShard(i)
		checkAll(fmt.Sprintf("shard%d-down", i))
		lc.RestartShard(i)
	}
	checkAll("after-rejoin")

	// Mixed-model batch through the scatter-gather path: edge and vertex
	// slots interleaved, plus a bad vertex slot erroring individually.
	est, err := ftbfs.Build(g, source, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	eo := est.Oracle()
	var failable [][2]int
	for _, e := range est.Edges() {
		if !est.IsReinforced(e[0], e[1]) {
			failable = append(failable, e)
		}
	}
	eps := 0.3
	req := server.BatchQueryRequest{Graph: br.Fingerprint, Eps: &eps}
	type expect struct {
		dist int
		bad  bool
	}
	var expects []expect
	for j := 0; j < 32; j++ {
		if j%2 == 0 {
			w := 1 + j%(n-1)
			v := (j * 7) % n
			fw := w
			req.Queries = append(req.Queries, server.BatchQuery{V: v, FailedVertex: &fw})
			want, err := ro.DistAvoidingVertex(v, w)
			if err != nil {
				t.Fatal(err)
			}
			expects = append(expects, expect{dist: want})
		} else {
			e := failable[j%len(failable)]
			v := (j * 11) % n
			req.Queries = append(req.Queries, server.BatchQuery{V: v, Fail: e})
			want, err := eo.DistAvoiding(v, e[0], e[1])
			if err != nil {
				t.Fatal(err)
			}
			expects = append(expects, expect{dist: want})
		}
	}
	srcFail := source
	req.Queries = append(req.Queries, server.BatchQuery{V: 1, FailedVertex: &srcFail})
	expects = append(expects, expect{bad: true})

	var resp server.BatchQueryResponse
	code, body = postJSON(t, lc.URL()+"/batch-query", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	if len(resp.Dists) != len(expects) {
		t.Fatalf("batch: %d dists for %d slots", len(resp.Dists), len(expects))
	}
	for i, ex := range expects {
		if ex.bad {
			if resp.Errors == nil || resp.Errors[i] == "" {
				t.Fatalf("batch slot %d: bad slot did not error", i)
			}
			continue
		}
		if resp.Errors != nil && resp.Errors[i] != "" {
			t.Fatalf("batch slot %d errored: %s", i, resp.Errors[i])
		}
		if resp.Dists[i] != ex.dist {
			t.Fatalf("batch slot %d: dist %d, want %d", i, resp.Dists[i], ex.dist)
		}
	}
}

// TestRouterVertexConcurrentChurn mixes concurrent routed vertex queries
// with shard kill/restart churn; run under -race in CI. Answers must either
// match the reference or fail with a transport-visible error status — never
// silently differ.
func TestRouterVertexConcurrentChurn(t *testing.T) {
	lc, err := StartLocal(3, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	g, _ := clusterGraph(30, 45, 22)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	var br server.BuildResponse
	code, body := postJSON(t, lc.URL()+"/build", server.BuildRequest{
		Graph:         text.String(),
		VertexSources: []int{0},
	}, &br)
	if code != http.StatusOK {
		t.Fatalf("/build: %d %s", code, body)
	}
	ref, err := ftbfs.BuildVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	ro := ref.Oracle()
	want := make([][]int, n)
	for w := 1; w < n; w++ {
		want[w] = make([]int, n)
		for v := 0; v < n; v++ {
			d, err := ro.DistAvoidingVertex(v, w)
			if err != nil {
				t.Fatal(err)
			}
			want[w][v] = d
		}
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			lc.KillShard(i % len(lc.Shards))
			time.Sleep(5 * time.Millisecond)
			lc.RestartShard(i % len(lc.Shards))
			i++
			time.Sleep(5 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for gid := 0; gid < 4; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + gid)))
			client := &http.Client{Timeout: 5 * time.Second}
			for iter := 0; iter < 150; iter++ {
				w := 1 + rng.Intn(n-1)
				v := rng.Intn(n)
				resp, err := client.Get(fmt.Sprintf("%s/dist-avoiding-vertex?graph=%s&v=%d&fw=%d",
					lc.URL(), br.Fingerprint, v, w))
				if err != nil {
					continue // router itself unreachable mid-churn: not a correctness bug
				}
				var dr struct {
					Dist int `json:"dist"`
				}
				deco := json.NewDecoder(resp.Body)
				code := resp.StatusCode
				decErr := deco.Decode(&dr)
				resp.Body.Close()
				if code != http.StatusOK {
					continue // visible failure is acceptable under churn
				}
				if decErr != nil {
					select {
					case errc <- fmt.Errorf("undecodable 200: %v", decErr):
					default:
					}
					return
				}
				if dr.Dist != want[w][v] {
					select {
					case errc <- fmt.Errorf("silent wrong answer (v=%d, w=%d): %d != %d", v, w, dr.Dist, want[w][v]):
					default:
					}
					return
				}
			}
		}(gid)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestRouterWireFailoverAndReconnect pins down how queries travel: over the
// binary protocol only, so the router's wire request counters move. When one
// replica's wire listener dies, its attempts hit transport faults (counted
// in wire_fallbacks) and fail over to the other replica with every answer
// still correct; once the listener is back on a fresh port, a probe sweep
// re-learns it and the shard serves wire traffic again.
func TestRouterWireFailoverAndReconnect(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fixtures := buildFixtures(t, lc.URL(), []int64{41}, []int{0, 5}, 0.3)

	// Counters come from the router's own /metrics, which — unlike /stats —
	// sends nothing to the shards: no stray shard request may clear a
	// replica's strikes between phases.
	metric := func(series string) float64 {
		return promValue(t, getBody(t, lc.URL()+"/metrics"), series)
	}
	const (
		points  = `ftbfs_router_wire_requests_total{kind="point"}`
		batches = `ftbfs_router_wire_requests_total{kind="batch"}`
		faults  = "ftbfs_router_wire_fallbacks_total"
	)
	sample := func(label string) {
		for _, fx := range fixtures {
			for i := 0; i < len(fx.edges); i += 4 {
				checkPoint(t, lc.URL(), fx, (i*19)%fx.n, fx.edges[i])
			}
		}
		eps := 0.3
		fx := fixtures[0]
		src := fx.source
		e := fx.edges[0]
		want, err := fx.oracle.DistAvoiding(e[1], e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		var resp server.BatchQueryResponse
		req := server.BatchQueryRequest{Eps: &eps, Queries: []server.BatchQuery{
			{Graph: fx.fp, Source: &src, V: e[1], Fail: e},
		}}
		code, body := postJSON(t, lc.URL()+"/batch-query", req, &resp)
		if code != http.StatusOK {
			t.Fatalf("[%s] routed batch: %d %s", label, code, body)
		}
		if resp.Errors != nil || len(resp.Dists) != 1 || resp.Dists[0] != want {
			t.Fatalf("[%s] batch answer %v / %v, want [%d]", label, resp.Dists, resp.Errors, want)
		}
	}

	p0, b0, f0 := metric(points), metric(batches), metric(faults)
	sample("all-wire")
	if p1 := metric(points); p1 <= p0 {
		t.Fatalf("wire point requests did not move: %v -> %v", p0, p1)
	}
	if b1 := metric(batches); b1 <= b0 {
		t.Fatalf("wire batch requests did not move: %v -> %v", b0, b1)
	}
	if f1 := metric(faults); f1 != f0 {
		t.Fatalf("healthy cluster hit %v wire transport faults", f1-f0)
	}

	// Kill the wire listener of the primary for fixture 0's key. The member
	// keeps the stale address, so the attempts sent to it fail and the
	// other replica answers.
	eps := fixtures[0].eps
	v := 0
	q, err := (&server.QueryRequest{Graph: fixtures[0].fp, Source: fixtures[0].source, Eps: &eps, V: &v}).Resolve("/dist")
	if err != nil {
		t.Fatal(err)
	}
	primary := lc.Router.ownersFor(q.Key)[0].ID
	var down *LocalShard
	for _, sh := range lc.Shards {
		if sh.ID == primary {
			down = sh
		}
	}
	down.stopWire()
	f0, fo0 := metric(faults), metric("ftbfs_router_failovers_total")
	sample("primary-wire-down")
	if f1 := metric(faults); f1 <= f0 {
		t.Fatalf("wire_fallbacks did not move with %s's wire listener dead: %v -> %v", primary, f0, f1)
	}
	if fo1 := metric("ftbfs_router_failovers_total"); fo1 <= fo0 {
		t.Fatalf("failovers did not move with %s's wire listener dead: %v -> %v", primary, fo0, fo1)
	}

	// The listener comes back on a fresh port; the next probe sweep learns
	// it from /readyz and the shard answers wire traffic again.
	if err := down.startWire(); err != nil {
		t.Fatal(err)
	}
	lc.Router.Membership().ProbeAll(context.Background(), &http.Client{Timeout: 2 * time.Second})
	served := `ftbfs_router_replica_seconds_count{replica="` + primary + `",transport="wire"}`
	s0, p0 := metric(served), metric(points)
	sample("wire-back")
	if p1 := metric(points); p1 <= p0 {
		t.Fatalf("wire point requests did not move after the restart: %v -> %v", p0, p1)
	}
	if s1 := metric(served); s1 <= s0 {
		t.Fatalf("%s answered no wire attempts after its listener came back (%v -> %v)", primary, s0, s1)
	}
}
