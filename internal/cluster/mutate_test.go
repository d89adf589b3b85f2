package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftbfs"
	"ftbfs/internal/chaos"
	"ftbfs/internal/server"
)

// The live-graph suite: a sustained mutation stream through the router's
// /mutate while queries hammer the same lineage. The swap contract under
// test: a query may be answered by any generation that was serving at some
// instant of the query's lifetime — and by nothing else. A torn plan, a
// mixed-generation view, or a half-applied batch would produce an answer
// matching NO generation, which the per-generation oracle window catches.

// mutateProbe is one replayed query: an intact distance when isFail is
// false, a failure query on fail otherwise. Probed edges are never mutated,
// so they exist in every generation; whether they are failable (present in
// H, not reinforced) can still change when a full rebuild reshapes H.
type mutateProbe struct {
	v      int
	fail   [2]int
	isFail bool
}

// genAnswers is one generation's ground truth for the probe set, computed by
// the driver from its local mirror before that generation can exist anywhere
// in the cluster. valid[j] is false when generation g rejects probe j (its
// edge became reinforced after a full rebuild) — the server answering 4xx is
// then as correct as a neighbouring generation answering a distance.
type genAnswers struct {
	dist  []int
	valid []bool
}

func snapshotAnswers(st *ftbfs.Structure, probes []mutateProbe) genAnswers {
	o := st.Oracle()
	a := genAnswers{dist: make([]int, len(probes)), valid: make([]bool, len(probes))}
	for j, p := range probes {
		if !p.isFail {
			a.dist[j], a.valid[j] = o.Dist(p.v), true
			continue
		}
		d, err := o.DistAvoiding(p.v, p.fail[0], p.fail[1])
		if err == nil {
			a.dist[j], a.valid[j] = d, true
		}
	}
	return a
}

// windowOK reports whether one observed answer is explained by at least one
// generation in [lo, hi].
func windowOK(answers []genAnswers, lo, hi, j int, got200 bool, dist int) bool {
	for g := lo; g <= hi && g < len(answers); g++ {
		a := answers[g]
		if a.dist == nil {
			continue
		}
		if got200 {
			if a.valid[j] && a.dist[j] == dist {
				return true
			}
		} else if !a.valid[j] {
			return true
		}
	}
	return false
}

func canonPair(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// mutateVia posts one mutation batch through the router without testing.TB
// plumbing, so driver goroutines can report errors instead of t.Fatal-ing.
func mutateVia(client *http.Client, url, lineage string, muts []server.MutationJSON) (int, server.MutateResponse, string, error) {
	raw, err := json.Marshal(server.MutateRequest{Graph: lineage, Mutations: muts})
	if err != nil {
		return 0, server.MutateResponse{}, "", err
	}
	resp, err := client.Post(url+"/mutate", "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, server.MutateResponse{}, "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, server.MutateResponse{}, "", err
	}
	var mr server.MutateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &mr); err != nil {
			return 0, server.MutateResponse{}, "", fmt.Errorf("bad /mutate body %q: %w", buf.String(), err)
		}
	}
	return resp.StatusCode, mr, buf.String(), nil
}

// TestRouterMutateDifferentialSwapAtomicity is the live-graph acceptance
// gate (run under -race in CI): a 4-shard / R=2 cluster absorbs a sustained
// mutation stream — delta-eligible deletes interleaved with rebuild-forcing
// inserts — while point and batch queries run concurrently, and every
// shard's wire listener restarts mid-stream. Every answer must match some
// generation that was serving during the query; zero wrong answers
// tolerated.
func TestRouterMutateDifferentialSwapAtomicity(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	g, edges := clusterGraph(60, 90, 61)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	var br server.BuildResponse
	code, body := postJSON(t, lc.URL()+"/build", server.BuildRequest{
		Graph: text.String(), Sources: []int{0}, Eps: []float64{0.3},
	}, &br)
	if code != http.StatusOK {
		t.Fatalf("/build: %d %s", code, body)
	}
	lineage := br.Fingerprint

	// The local mirror evolves exactly as each shard's store does: same
	// graph, same mutation batches, same delta-carry-or-full-rebuild
	// decision — so mirror answers are bit-equal to shard answers per
	// generation, and the differential is exact.
	refG := g
	refSt, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	// Probes: intact distances across the vertex range plus failure queries
	// on gen-0 failable edges. Probed edges are excluded from mutation.
	n := g.N()
	var probes []mutateProbe
	for v := 0; v < n; v += 4 {
		probes = append(probes, mutateProbe{v: v})
	}
	protected := make(map[[2]int]bool)
	for i, e := range edges {
		if refSt.IsReinforced(e[0], e[1]) || i%3 != 0 {
			continue
		}
		probes = append(probes, mutateProbe{v: (i * 13) % n, fail: e, isFail: true})
		protected[canonPair(e[0], e[1])] = true
	}
	var failProbes []int
	for j, p := range probes {
		if p.isFail {
			failProbes = append(failProbes, j)
		}
	}
	if len(failProbes) < 8 {
		t.Fatalf("only %d failure probes — graph fixture too reinforced", len(failProbes))
	}

	const batches = 12
	answers := make([]genAnswers, batches+1)
	answers[0] = snapshotAnswers(refSt, probes)
	var genStarted, genDone atomic.Int64

	// Driver: apply batches 1..batches through the router, publishing each
	// generation's ground truth before the cluster can serve it.
	present := make(map[[2]int]bool, len(edges))
	all := append([][2]int(nil), edges...)
	for _, e := range edges {
		present[canonPair(e[0], e[1])] = true
	}
	rng := rand.New(rand.NewSource(62))
	driverErr := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		client := &http.Client{Timeout: 30 * time.Second}
		abort := func(err error) {
			select {
			case driverErr <- err:
			default:
			}
		}
		for i := 1; i <= batches; i++ {
			var muts []ftbfs.Mutation
			var jmuts []server.MutationJSON
			if i%3 == 0 {
				// Insert a fresh edge: forces a full rebuild everywhere.
				for {
					u, v := rng.Intn(n), rng.Intn(n)
					if u == v || present[canonPair(u, v)] {
						continue
					}
					present[canonPair(u, v)] = true
					all = append(all, [2]int{u, v})
					muts = []ftbfs.Mutation{{Op: ftbfs.MutInsert, U: u, V: v}}
					jmuts = []server.MutationJSON{{Op: "insert", U: u, V: v}}
					break
				}
			} else {
				// Delete a present non-H, non-probed edge: provably cannot
				// invalidate the structure, so the delta path must carry it.
				found := false
				for _, e := range all {
					cp := canonPair(e[0], e[1])
					if !present[cp] || protected[cp] || refSt.Contains(e[0], e[1]) {
						continue
					}
					present[cp] = false
					muts = []ftbfs.Mutation{{Op: ftbfs.MutDelete, U: e[0], V: e[1]}}
					jmuts = []server.MutationJSON{{Op: "delete", U: e[0], V: e[1]}}
					found = true
					break
				}
				if !found {
					abort(fmt.Errorf("batch %d: no deletable non-H edge left", i))
					return
				}
			}
			newG, delta, err := refG.Mutate(muts)
			if err != nil {
				abort(fmt.Errorf("batch %d: local mutate: %w", i, err))
				return
			}
			wantDelta := false
			if st, ok := ftbfs.DeltaRebuild(refSt, newG, delta); ok {
				refSt, wantDelta = st, true
			} else if refSt, err = ftbfs.Build(newG, 0, 0.3); err != nil {
				abort(fmt.Errorf("batch %d: local rebuild: %w", i, err))
				return
			}
			refG = newG
			answers[i] = snapshotAnswers(refSt, probes)
			genStarted.Store(int64(i))

			code, resp, body, err := mutateVia(client, lc.URL(), lineage, jmuts)
			if err != nil {
				abort(fmt.Errorf("batch %d: %w", i, err))
				return
			}
			if code != http.StatusOK {
				abort(fmt.Errorf("batch %d: /mutate: %d %s", i, code, body))
				return
			}
			if resp.Gen != uint64(i) || resp.Fingerprint != fmt.Sprintf("%016x", refG.Fingerprint()) {
				abort(fmt.Errorf("batch %d: cluster reached gen %d fp %s, mirror says gen %d fp %016x",
					i, resp.Gen, resp.Fingerprint, i, refG.Fingerprint()))
				return
			}
			if wantDelta && resp.RebuildsDelta == 0 {
				abort(fmt.Errorf("batch %d: delete of a non-H edge did not ride the delta path: %+v", i, resp))
				return
			}
			if !wantDelta && resp.RebuildsFull == 0 {
				abort(fmt.Errorf("batch %d: insert did not force a full rebuild: %+v", i, resp))
				return
			}
			genDone.Store(int64(i))

			if i == batches/2 {
				// Mid-stream, every shard's wire listener restarts on a fresh
				// port under live query traffic — a rolling restart: attempts
				// on the restarting shard fail over to its replica, a probe
				// sweep re-learns the new address, and the next shard goes
				// only after the longest retry backoff, so no request meets
				// both of its R=2 replicas mid-restart.
				for _, sh := range lc.Shards {
					sh.stopWire()
					if err := sh.startWire(); err != nil {
						abort(fmt.Errorf("restart %s wire listener: %w", sh.ID, err))
						return
					}
					lc.Router.Membership().ProbeAll(context.Background(), &http.Client{Timeout: 2 * time.Second})
					time.Sleep(DefaultMaxRetryBackoff)
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Query workers: every answer must be explained by a generation inside
	// the query's [genDone-at-start, genStarted-at-end] window.
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			client := &http.Client{Timeout: 30 * time.Second}
			eps := 0.3
			done, tail := false, 8
			for iter := 0; !done || tail > 0; iter++ {
				select {
				case <-stop:
					done = true
				default:
				}
				if done {
					tail--
				}
				if iter%6 == 5 {
					// A batch query: four failure slots, one shared window.
					var req server.BatchQueryRequest
					req.Graph = lineage
					req.Eps = &eps
					var slots []int
					src := 0
					for s := 0; s < 4; s++ {
						j := failProbes[rng.Intn(len(failProbes))]
						slots = append(slots, j)
						p := probes[j]
						req.Queries = append(req.Queries, server.BatchQuery{Source: &src, V: p.v, Fail: p.fail})
					}
					lo := int(genDone.Load())
					var resp server.BatchQueryResponse
					code, body := postJSON(t, lc.URL()+"/batch-query", req, &resp)
					hi := int(genStarted.Load())
					if code != http.StatusOK {
						t.Errorf("batch query: %d %s", code, body)
						return
					}
					for s, j := range slots {
						bad := resp.Errors != nil && resp.Errors[s] != ""
						dist := 0
						if !bad {
							dist = resp.Dists[s]
						}
						if !windowOK(answers, lo, hi, j, !bad, dist) {
							t.Errorf("batch slot probe %+v: answer %d (err=%v) matches no generation in [%d,%d]",
								probes[j], dist, bad, lo, hi)
							return
						}
					}
					continue
				}
				j := rng.Intn(len(probes))
				p := probes[j]
				var url string
				if p.isFail {
					url = fmt.Sprintf("%s/dist-avoiding?graph=%s&source=0&eps=0.3&v=%d&fu=%d&fv=%d",
						lc.URL(), lineage, p.v, p.fail[0], p.fail[1])
				} else {
					url = fmt.Sprintf("%s/dist?graph=%s&source=0&eps=0.3&v=%d", lc.URL(), lineage, p.v)
				}
				lo := int(genDone.Load())
				resp, err := client.Get(url)
				if err != nil {
					t.Errorf("probe %+v: %v", p, err)
					return
				}
				var dr struct {
					Dist int `json:"dist"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				hi := int(genStarted.Load())
				got200 := resp.StatusCode == http.StatusOK
				if got200 && decErr != nil {
					t.Errorf("probe %+v: undecodable 200: %v", p, decErr)
					return
				}
				if !windowOK(answers, lo, hi, j, got200, dr.Dist) {
					t.Errorf("probe %+v: answer %d (status %d) matches no generation in [%d,%d]",
						p, dr.Dist, resp.StatusCode, lo, hi)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-driverErr:
		t.Fatal(err)
	default:
	}

	// Convergence: every shard holding the lineage settled on the final
	// generation and fingerprint.
	lin, err := strconv.ParseUint(lineage, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	holders := 0
	for _, sh := range lc.Shards {
		gg, ok := sh.Store.Graph(lin)
		if !ok {
			continue
		}
		holders++
		if gg.Generation() != batches || gg.Fingerprint() != refG.Fingerprint() {
			t.Errorf("shard %s settled at gen %d fp %016x, want gen %d fp %016x",
				sh.ID, gg.Generation(), gg.Fingerprint(), batches, refG.Fingerprint())
		}
	}
	if holders != 2 {
		t.Errorf("lineage registered on %d shards, want 2 (R=2)", holders)
	}

	// The convergence ledger recorded the stream: fan-outs, per-shard swaps,
	// both rebuild kinds, and the wire transport.
	var rs RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	if rs.Mutations != batches {
		t.Errorf("router executed %d mutation fan-outs, want %d", rs.Mutations, batches)
	}
	if rs.MutationShards != 2*batches {
		t.Errorf("ledger counted %d shard swaps, want %d (R=2 × %d batches)", rs.MutationShards, 2*batches, batches)
	}
	if rs.MutationRebuildsDelta == 0 {
		t.Error("the delta fast path never engaged across the whole stream")
	}
	if rs.MutationRebuildsFull == 0 {
		t.Error("no full rebuild across a stream with inserts")
	}
	if rs.WireMutations == 0 {
		t.Error("no mutation rode the wire fast path in the first half")
	}
}

// TestRouterMutateSingleFlightNoDoubleApply races identical mutation
// requests: the flight must apply the batch once — a retry racing its slow
// original must never advance the lineage twice (the second apply would
// delete an already-absent edge). Whatever the interleaving, the lineage
// ends at generation 1, and a follow-up batch lands at exactly 2.
func TestRouterMutateSingleFlightNoDoubleApply(t *testing.T) {
	lc, err := StartLocal(4, LocalOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	g, edges := clusterGraph(80, 140, 63)
	var text bytes.Buffer
	if err := g.Write(&text); err != nil {
		t.Fatal(err)
	}
	var br server.BuildResponse
	code, body := postJSON(t, lc.URL()+"/build", server.BuildRequest{
		Graph: text.String(), Sources: []int{0}, Eps: []float64{0.3},
	}, &br)
	if code != http.StatusOK {
		t.Fatalf("/build: %d %s", code, body)
	}
	st, err := ftbfs.Build(g, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var targets [][2]int
	for _, e := range edges {
		if !st.Contains(e[0], e[1]) {
			targets = append(targets, e)
		}
	}
	if len(targets) < 2 {
		t.Fatalf("fixture has %d non-H edges, need 2", len(targets))
	}

	const clients = 8
	jmuts := []server.MutationJSON{{Op: "delete", U: targets[0][0], V: targets[0][1]}}
	codes := make([]int, clients)
	resps := make([]server.MutateResponse, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			client := &http.Client{Timeout: 30 * time.Second}
			code, resp, _, err := mutateVia(client, lc.URL(), br.Fingerprint, jmuts)
			if err != nil {
				t.Error(err)
				return
			}
			codes[c], resps[c] = code, resp
		}()
	}
	close(start)
	wg.Wait()

	applied := 0
	for c := 0; c < clients; c++ {
		switch codes[c] {
		case http.StatusOK:
			applied++
			if resps[c].Gen != 1 {
				t.Errorf("client %d saw gen %d from a single logical batch", c, resps[c].Gen)
			}
		case http.StatusBadRequest:
			// A straggler that missed the flight re-applied the delete and
			// was deterministically rejected — the batch still applied once.
		default:
			t.Errorf("client %d: unexpected status %d", c, codes[c])
		}
	}
	if applied == 0 {
		t.Fatal("no client observed the applied batch")
	}

	// The follow-up batch proves the serving generation is exactly 1.
	client := &http.Client{Timeout: 30 * time.Second}
	code, resp, body, err := mutateVia(client, lc.URL(), br.Fingerprint,
		[]server.MutationJSON{{Op: "delete", U: targets[1][0], V: targets[1][1]}})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || resp.Gen != 2 {
		t.Fatalf("follow-up batch: %d %s (gen %d), want 200 at gen 2", code, body, resp.Gen)
	}

	var rs RouterStatsResponse
	if code, body := getJSON(t, lc.URL()+"/stats", &rs); code != http.StatusOK {
		t.Fatalf("/stats: %d %s", code, body)
	}
	if rs.Mutations+rs.MutationsCoalesced != clients+1 {
		t.Fatalf("flight accounting: %d executed + %d coalesced != %d requests",
			rs.Mutations, rs.MutationsCoalesced, clients+1)
	}
}

// TestRouterMutateDiskFaultKeepsOldGenerationServing is the chaos variant:
// with every persist write failing, /mutate must fail without swapping —
// and the old generation keeps answering exactly, fault plan still armed.
func TestRouterMutateDiskFaultKeepsOldGenerationServing(t *testing.T) {
	inj := chaos.New(chaos.Plan{Name: "mutate-disk", DiskWriteErrP: 1}, 5)
	inj.SetEnabled(false) // boot and fixtures run fault-free
	lc, err := StartLocal(3, LocalOptions{
		Replicas:    2,
		PersistRoot: t.TempDir(),
		Chaos:       inj,
		Router:      RouterOptions{BuildTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	fixtures := buildFixtures(t, lc.URL(), []int64{71}, []int{0}, 0.3)
	fx := fixtures[0]
	sample := func(label string) {
		t.Helper()
		for i := 0; i < len(fx.edges); i += 3 {
			checkPoint(t, lc.URL(), fx, (i*17)%fx.n, fx.edges[i])
		}
	}
	sample("pre-fault")

	defer inj.SetEnabled(false)
	inj.SetEnabled(true)
	client := &http.Client{Timeout: 30 * time.Second}
	e := fx.edges[0]
	jmuts := []server.MutationJSON{{Op: "delete", U: e[0], V: e[1]}}
	code, _, body, err := mutateVia(client, lc.URL(), fx.fp, jmuts)
	if err != nil {
		t.Fatal(err)
	}
	if code < http.StatusInternalServerError {
		t.Fatalf("/mutate with persist writes failing: %d %s, want 5xx and no swap", code, body)
	}
	if inj.Counts()["disk-write-err"] == 0 {
		t.Fatal("the disk-fault plan never fired — the mutation failed for some other reason")
	}

	// Old generation keeps serving, fault plan still armed: resident
	// structures answer without touching disk.
	sample("mid-fault")
	lin, err := strconv.ParseUint(fx.fp, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range lc.Shards {
		if gg, ok := sh.Store.Graph(lin); ok && gg.Generation() != 0 {
			t.Errorf("shard %s swapped to gen %d despite the persist fault", sh.ID, gg.Generation())
		}
	}

	// Faults cleared, the same batch applies cleanly.
	inj.SetEnabled(false)
	code, resp, body, err := mutateVia(client, lc.URL(), fx.fp, jmuts)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || resp.Gen != 1 {
		t.Fatalf("retry after faults cleared: %d %s (gen %d), want 200 at gen 1", code, body, resp.Gen)
	}
}
