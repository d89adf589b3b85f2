package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	"ftbfs"
	"ftbfs/internal/cluster"
	"ftbfs/internal/server"
)

// httpOps issues a fixture's operations over HTTP, against the router or
// directly against a shard, and checks every answer.
type httpOps struct {
	f  *fixture
	fl *fleet

	pointPaths  []string // per f.points: path and query
	batchBodies [][]byte // per f.batches: /batch-query body
	// shardBatches[j] splits batch j by the first owner of each slot's
	// structure; the server-side layers send one sub-batch per owner.
	shardBatches [][]subBatch
}

// subBatch is the part of a batch one shard answers.
type subBatch struct {
	shard *cluster.LocalShard
	slots []int // indexes into the batch
	body  []byte
}

func newHTTPOps(f *fixture, fl *fleet) (*httpOps, error) {
	h := &httpOps{f: f, fl: fl}
	epsStr := strconv.FormatFloat(eps, 'g', -1, 64)
	for _, q := range f.points {
		vals := url.Values{"graph": {fl.fp}, "source": {strconv.Itoa(f.sources[q.src])},
			"eps": {epsStr}, "v": {strconv.Itoa(q.v)}}
		path := "/dist?"
		if q.a >= 0 {
			vals.Set("fu", strconv.Itoa(q.a))
			vals.Set("fv", strconv.Itoa(q.b))
			path = "/dist-avoiding?"
		}
		h.pointPaths = append(h.pointPaths, path+vals.Encode())
	}
	for _, b := range f.batches {
		body, err := h.batchBody(b, nil)
		if err != nil {
			return nil, err
		}
		h.batchBodies = append(h.batchBodies, body)
		var subs []subBatch
		idx := map[*cluster.LocalShard]int{}
		for s, q := range b {
			sh := fl.owners[q.src][0]
			k, ok := idx[sh]
			if !ok {
				k = len(subs)
				idx[sh] = k
				subs = append(subs, subBatch{shard: sh})
			}
			subs[k].slots = append(subs[k].slots, s)
		}
		for k := range subs {
			if subs[k].body, err = h.batchBody(b, subs[k].slots); err != nil {
				return nil, err
			}
		}
		h.shardBatches = append(h.shardBatches, subs)
	}
	return h, nil
}

// batchBody encodes the given slots of batch b (all of them when slots is
// nil) as a /batch-query body.
func (h *httpOps) batchBody(b []pointQuery, slots []int) ([]byte, error) {
	e := eps
	req := server.BatchQueryRequest{Graph: h.fl.fp, Eps: &e}
	add := func(q pointQuery) {
		src := h.f.sources[q.src]
		req.Queries = append(req.Queries, server.BatchQuery{Source: &src, V: q.v, Fail: [2]int{q.a, q.b}})
	}
	if slots == nil {
		for _, q := range b {
			add(q)
		}
	} else {
		for _, s := range slots {
			add(b[s])
		}
	}
	return json.Marshal(req)
}

// point issues read i of the pool against base (router or shard URL).
func (h *httpOps) point(base string, i int) outcome {
	i %= len(h.f.points)
	var d struct{ Dist int }
	if err := h.fl.getJSON(base+h.pointPaths[i], &d); err != nil {
		return outcome{failed: true, err: err.Error()}
	}
	return checkOne(h.f.points[i], d.Dist)
}

// batch issues batch i of the pool through the router.
func (h *httpOps) batch(base string, i int) outcome {
	i %= len(h.f.batches)
	var resp server.BatchQueryResponse
	if err := h.fl.postRaw(base+"/batch-query", h.batchBodies[i], &resp); err != nil {
		return outcome{failed: true, err: err.Error()}
	}
	return checkBatch(h.f.batches[i], nil, resp)
}

// shardBatch issues batch i as one sub-batch per owning shard, in turn.
func (h *httpOps) shardBatch(i int) outcome {
	i %= len(h.f.batches)
	var o outcome
	for _, sb := range h.shardBatches[i] {
		var resp server.BatchQueryResponse
		if err := h.fl.postRaw(sb.shard.Addr()+"/batch-query", sb.body, &resp); err != nil {
			return outcome{failed: true, err: err.Error()}
		}
		o = o.plus(checkBatch(h.f.batches[i], sb.slots, resp))
	}
	return o
}

// mutate sends one /mutate through the router.
func (h *httpOps) mutate(m ftbfs.Mutation) outcome {
	op := "insert"
	if m.Op == ftbfs.MutDelete {
		op = "delete"
	}
	req := server.MutateRequest{Graph: h.fl.fp, Mutations: []server.MutationJSON{{Op: op, U: m.U, V: m.V}}}
	if err := h.fl.postJSON(h.fl.lc.URL()+"/mutate", req, nil); err != nil {
		return outcome{failed: true, err: fmt.Sprintf("%s {%d,%d}: %v", op, m.U, m.V, err)}
	}
	return outcome{}
}

// checkOne compares one answered distance with the expected one.
func checkOne(q pointQuery, got int) outcome {
	if got != q.want {
		return outcome{wrong: 1, err: fmt.Sprintf("v=%d fail={%d,%d}: got %d, want %d", q.v, q.a, q.b, got, q.want)}
	}
	return outcome{answers: 1}
}

// checkBatch checks a batch reply against the given slots of b (all of them
// when slots is nil). Any slot error fails the whole operation.
func checkBatch(b []pointQuery, slots []int, resp server.BatchQueryResponse) outcome {
	n := len(b)
	if slots != nil {
		n = len(slots)
	}
	if len(resp.Dists) != n {
		return outcome{failed: true, err: fmt.Sprintf("batch reply has %d dists for %d slots", len(resp.Dists), n)}
	}
	var o outcome
	for j, d := range resp.Dists {
		s := j
		if slots != nil {
			s = slots[j]
		}
		if j < len(resp.Errors) && resp.Errors[j] != "" {
			o.failed = true
			if o.err == "" {
				o.err = resp.Errors[j]
			}
			continue
		}
		o = o.plus(checkOne(b[s], d))
	}
	return o
}

// plus folds two partial outcomes of one operation together.
func (o outcome) plus(p outcome) outcome {
	o.answers += p.answers
	o.wrong += p.wrong
	o.failed = o.failed || p.failed
	if o.err == "" {
		o.err = p.err
	}
	return o
}
