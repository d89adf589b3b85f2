package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"ftbfs"
	"ftbfs/internal/cluster"
	"ftbfs/internal/server"
	"ftbfs/internal/store"
)

// Fleet shape: three in-process shards at replication 2 behind a router
// with production RouterOptions defaults (3 ms hedge, wire fast path on).
const (
	fleetShards   = 3
	fleetReplicas = 2
)

// fleet is one booted cluster serving a fixture.
type fleet struct {
	lc     *cluster.LocalCluster
	fp     string      // lineage fingerprint /build returned
	keys   []store.Key // per fixture source
	owners [][]*cluster.LocalShard
	client *http.Client
}

// newClient returns the HTTP client every benchmark request uses: enough
// idle connections per host that neither loop ever redials.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64, MaxIdleConns: 256},
	}
}

// startFleet boots a fleet and builds the fixture's structures through the
// router. It returns once /build has returned and every structure answers
// on every owner; the caller times exactly this call.
func startFleet(f *fixture, client *http.Client) (*fleet, error) {
	lc, err := cluster.StartLocal(fleetShards, cluster.LocalOptions{Replicas: fleetReplicas})
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	fl := &fleet{lc: lc, client: client}
	var resp server.BuildResponse
	req := server.BuildRequest{Graph: f.text, Sources: f.sources, Eps: []float64{eps}}
	if err := fl.postJSON(lc.URL()+"/build", req, &resp); err != nil {
		lc.Close()
		return nil, fmt.Errorf("/build: %w", err)
	}
	if len(resp.Structures) != len(f.sources) {
		lc.Close()
		return nil, fmt.Errorf("/build returned %d structures, want %d", len(resp.Structures), len(f.sources))
	}
	fl.fp = resp.Fingerprint
	lineage, err := strconv.ParseUint(fl.fp, 16, 64)
	if err != nil {
		lc.Close()
		return nil, fmt.Errorf("/build fingerprint %q: %w", fl.fp, err)
	}
	byID := map[string]*cluster.LocalShard{}
	for _, sh := range lc.Shards {
		byID[sh.ID] = sh
	}
	for i, s := range f.sources {
		k := store.Key{Graph: lineage, Source: s, Eps: eps, Alg: ftbfs.AlgoAuto}
		var owners []*cluster.LocalShard
		for _, m := range lc.Router.Membership().Owners(cluster.KeyHash(k)) {
			sh := byID[m.ID]
			q := url.Values{"graph": {fl.fp}, "source": {strconv.Itoa(s)},
				"eps": {strconv.FormatFloat(eps, 'g', -1, 64)}, "v": {"0"}}
			var d struct{ Dist int }
			if err := fl.getJSON(sh.Addr()+"/dist?"+q.Encode(), &d); err != nil {
				lc.Close()
				return nil, fmt.Errorf("owner %s of s%d: %w", sh.ID, s, err)
			}
			if d.Dist != f.refs[i].Dist(0) {
				lc.Close()
				return nil, fmt.Errorf("owner %s of s%d answers dist(0)=%d, want %d", sh.ID, s, d.Dist, f.refs[i].Dist(0))
			}
			owners = append(owners, sh)
		}
		fl.keys = append(fl.keys, k)
		fl.owners = append(fl.owners, owners)
	}
	return fl, nil
}

func (fl *fleet) close() {
	fl.lc.Close()
	fl.client.CloseIdleConnections()
}

// setupFleet boots the fleet `times` times and keeps the last one. setup_s
// is the median boot time; heap_mb is the Go heap the last fleet holds,
// read after a GC, over the heap before it booted.
func setupFleet(f *fixture, client *http.Client, times int) (fl *fleet, setup []time.Duration, heapMB float64, err error) {
	for i := 0; i < times; i++ {
		last := i == times-1
		var before uint64
		if last {
			before = heapInUse()
		}
		start := time.Now()
		fl, err = startFleet(f, client)
		if err != nil {
			return nil, nil, 0, err
		}
		setup = append(setup, time.Since(start))
		if !last {
			fl.close()
			continue
		}
		heapMB = float64(int64(heapInUse())-int64(before)) / 1e6
	}
	return fl, setup, heapMB, nil
}

// heapInUse returns runtime.MemStats.HeapInuse after two collections (the
// second one clears what sync.Pools kept alive through the first).
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// getJSON GETs u and decodes a 200 reply into out; any other status is an
// error carrying the body.
func (fl *fleet) getJSON(u string, out any) error {
	resp, err := fl.client.Get(u)
	if err != nil {
		return err
	}
	return decodeReply(resp, out)
}

// postJSON POSTs body as JSON and decodes a 200 reply into out.
func (fl *fleet) postJSON(u string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return fl.postRaw(u, raw, out)
}

func (fl *fleet) postRaw(u string, raw []byte, out any) error {
	resp, err := fl.client.Post(u, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	return decodeReply(resp, out)
}

func decodeReply(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}
