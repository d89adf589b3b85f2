package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"ftbfs"
	"ftbfs/internal/cluster"
	"ftbfs/internal/store"
	"ftbfs/internal/wire"
)

// layerSpec names one ledger layer and the layer its timed call contains;
// self time is the layer's statistic minus its child's.
type layerSpec struct {
	name, child string
}

// ledgerLayers is the ledger in print order. The serving chain nests: a
// routed request (cluster) crosses the wire hop to a shard (wire), whose
// server dispatches (server) to a store lookup (store), a pooled oracle
// (pool) and the query plan (plan); server_http prices the same shard call
// over HTTP. The build layers stand alone, except that Store.Mutate runs
// Graph.Mutate before it rebuilds.
var ledgerLayers = []layerSpec{
	{"plan", ""},
	{"pool", "plan"},
	{"store", "pool"},
	{"server", "store"},
	{"wire", "server"},
	{"server_http", "server"},
	{"cluster", "wire"},
	{"core", ""},
	{"batch", ""},
	{"graph", ""},
	{"core.delta", ""},
	{"store.mutate", "graph"},
}

// Per-layer sample limits: a layer runs for its share of the replay time,
// but takes at least minSamples and at most maxSamples timed calls.
const (
	minSamples = 3
	maxSamples = 20000
)

// layerRun is the timed sample of one layer.
type layerRun struct {
	lat   []time.Duration
	calls int
	bad   int
	wrong int
	err   string
}

func (r *layerRun) record(o outcome, d time.Duration) {
	r.calls++
	r.lat = append(r.lat, d)
	r.wrong += o.wrong
	if o.bad() {
		r.bad++
		if r.err == "" {
			r.err = o.err
		}
	}
}

// ledger is the traced run's result.
type ledger struct {
	runs          map[string]*layerRun
	overheadFrac  float64
	overheadCalls int
	calls         int
	bad           int
	wrong         int
	deltaApplied  int // DeltaRebuild calls that took the fast path
	deltaDeclined int
}

// timeLayer calls op sequentially, timing each call, until budget has
// passed (bounded by minSamples and maxSamples).
func timeLayer(budget time.Duration, op func(i int) outcome) *layerRun {
	r := &layerRun{}
	end := time.Now().Add(budget)
	for i := 0; i < maxSamples && (i < minSamples || time.Now().Before(end)); i++ {
		t0 := time.Now()
		o := op(i)
		r.record(o, time.Since(t0))
	}
	return r
}

// runLayers replays the workload's fixture and queries against each
// layer's public entry point in turn, one call at a time, with a timer
// around each call. It splits dur evenly over the layers.
func runLayers(f *fixture, fl *fleet, ops *httpOps, dur time.Duration) (*ledger, error) {
	share := dur / time.Duration(len(ledgerLayers)+1)
	l := &ledger{runs: map[string]*layerRun{}}
	r, err := newReplay(f, fl, ops)
	if err != nil {
		return nil, err
	}
	defer r.close()
	for _, name := range []string{"plan", "pool", "store", "server", "wire", "server_http", "cluster"} {
		l.runs[name] = timeLayer(share, r.readOp(name))
	}
	// Tracing overhead: the same cluster call stream once more, with one
	// timer around the whole loop instead of one per call.
	cl := l.runs["cluster"]
	traced := time.Duration(0)
	for _, d := range cl.lat {
		traced += d
	}
	op := r.readOp("cluster")
	t0 := time.Now()
	for i := 0; i < cl.calls; i++ {
		op(i)
	}
	untraced := time.Since(t0)
	l.overheadFrac = ratio(float64(traced-untraced), float64(untraced))
	l.overheadCalls = cl.calls

	l.runs["core"] = timeLayer(share, func(i int) outcome {
		k := i % len(f.sources)
		st, err := ftbfs.Build(f.g, f.sources[k], eps)
		if err != nil {
			return outcome{failed: true, err: err.Error()}
		}
		return checkStructure(st, f.refs[k])
	})
	reqs := make([]ftbfs.BatchRequest, len(f.sources))
	for k, s := range f.sources {
		reqs[k] = ftbfs.BatchRequest{Source: s, Eps: eps}
	}
	l.runs["batch"] = timeLayer(share, func(int) outcome {
		sts, err := ftbfs.BuildBatch(f.g, reqs)
		if err != nil {
			return outcome{failed: true, err: err.Error()}
		}
		var o outcome
		for k, st := range sts {
			o = o.plus(checkStructure(st, f.refs[k]))
		}
		return o
	})
	if err := l.mutationLayers(f, 3*share); err != nil {
		return nil, err
	}
	for _, run := range l.runs {
		l.calls += run.calls
		l.bad += run.bad
		l.wrong += run.wrong
	}
	return l, nil
}

// checkStructure compares a rebuilt structure with the reference build of
// the same request: builds are deterministic, so size and backup count
// must agree.
func checkStructure(st, ref *ftbfs.Structure) outcome {
	if st.Size() != ref.Size() || st.BackupCount() != ref.BackupCount() {
		return outcome{wrong: 1, err: fmt.Sprintf("s%d: size %d backups %d, reference %d/%d",
			st.Source(), st.Size(), st.BackupCount(), ref.Size(), ref.BackupCount())}
	}
	return outcome{answers: 1}
}

// mutationLayers drives the workload's mutation stream through a
// standalone store holding the workload's structures, timing per operation
// Graph.Mutate, DeltaRebuild of every resident structure (delete
// operations, the only ones the fast path can take) and Store.Mutate.
// Intact distances from the first source, whose BFS levels the stream is
// drawn from, are checked after every operation.
func (l *ledger) mutationLayers(f *fixture, budget time.Duration) error {
	ctx := context.Background()
	st, err := store.New(0, "")
	if err != nil {
		return err
	}
	lineage, err := st.AddGraph(f.g)
	if err != nil {
		return err
	}
	sreqs := make([]store.Req, len(f.sources))
	for k, s := range f.sources {
		sreqs[k] = store.Req{Source: s, Eps: eps}
	}
	if _, err := st.GetOrBuildMany(ctx, lineage, sreqs); err != nil {
		return err
	}
	keys := make([]store.Key, len(f.sources))
	for k, s := range f.sources {
		keys[k] = store.Key{Graph: lineage, Source: s, Eps: eps, Alg: ftbfs.AlgoAuto}
	}
	graphRun, deltaRun, storeRun := &layerRun{}, &layerRun{}, &layerRun{}
	ms := f.mutStream()
	end := time.Now().Add(budget)
	for i := 0; i < 2*minSamples || time.Now().Before(end); i++ {
		m, ok := ms.nextOp()
		if !ok {
			break
		}
		g, _ := st.Graph(lineage)
		t0 := time.Now()
		newG, delta, err := g.Mutate([]ftbfs.Mutation{m})
		graphRun.record(errOutcome(err), time.Since(t0))
		if err != nil {
			return fmt.Errorf("graph mutate %v: %w", m, err)
		}
		if m.Op == ftbfs.MutDelete {
			for _, k := range keys {
				old, _ := st.Get(k)
				t0 := time.Now()
				_, ok := ftbfs.DeltaRebuild(old, newG, delta)
				d := time.Since(t0)
				if ok {
					l.deltaApplied++
					deltaRun.record(outcome{answers: 1}, d)
				} else {
					l.deltaDeclined++
				}
			}
		}
		t0 = time.Now()
		_, err = st.Mutate(ctx, lineage, []ftbfs.Mutation{m})
		o := errOutcome(err)
		d := time.Since(t0)
		ms.ack(m, err == nil)
		// The stream keeps distances from the first source unchanged; other
		// sources' distances may legitimately move.
		if cur, ok := st.Get(keys[0]); !ok {
			o = o.plus(outcome{failed: true, err: fmt.Sprintf("%v missing after mutate", keys[0])})
		} else if v := i % f.ig.N(); cur.Dist(v) != f.refs[0].Dist(v) {
			o = o.plus(outcome{wrong: 1, err: fmt.Sprintf("after %v: dist(%d)=%d, want %d", m, v, cur.Dist(v), f.refs[0].Dist(v))})
		}
		storeRun.record(o, d)
	}
	l.runs["graph"], l.runs["core.delta"], l.runs["store.mutate"] = graphRun, deltaRun, storeRun
	return nil
}

func errOutcome(err error) outcome {
	if err != nil {
		return outcome{failed: true, err: err.Error()}
	}
	return outcome{answers: 1}
}

// replay holds what the read-chain layers call: the owning shard of every
// structure, its served structure and a checked-out oracle, and a wire
// client per shard.
type replay struct {
	f       *fixture
	fl      *fleet
	ops     *httpOps
	served  []*ftbfs.Structure
	oracles []*ftbfs.Oracle
	wires   map[*cluster.LocalShard]*wire.Client
	lineage uint64
	// groups[j][k] holds batch j's slots on structure k as plan queries,
	// with slotOf mapping them back to batch positions.
	groups [][][]ftbfs.FailureQuery
	slotOf [][][]int
	// wireSlots[j][x] encodes sub-batch x of batch j as wire slots.
	wireSlots [][][]wire.BatchSlot
}

func newReplay(f *fixture, fl *fleet, ops *httpOps) (*replay, error) {
	r := &replay{f: f, fl: fl, ops: ops, wires: map[*cluster.LocalShard]*wire.Client{}, lineage: fl.keys[0].Graph}
	for k, key := range fl.keys {
		owner := fl.owners[k][0]
		st, ok := owner.Store.Get(key)
		if !ok {
			return nil, fmt.Errorf("%s does not hold %v", owner.ID, key)
		}
		r.served = append(r.served, st)
		r.oracles = append(r.oracles, st.OraclePool().Get())
		if r.wires[owner] == nil {
			r.wires[owner] = wire.NewClient(owner.Server.WireAddr(), 1)
		}
	}
	for _, b := range f.batches {
		gs := make([][]ftbfs.FailureQuery, len(f.sources))
		idx := make([][]int, len(f.sources))
		for s, q := range b {
			gs[q.src] = append(gs[q.src], ftbfs.FailureQuery{V: q.v, FailedU: q.a, FailedV: q.b})
			idx[q.src] = append(idx[q.src], s)
		}
		r.groups = append(r.groups, gs)
		r.slotOf = append(r.slotOf, idx)
	}
	for j, subs := range ops.shardBatches {
		var ws [][]wire.BatchSlot
		for _, sb := range subs {
			slots := make([]wire.BatchSlot, len(sb.slots))
			for x, s := range sb.slots {
				_, slots[x].PointQuery = r.wirePoint(f.batches[j][s])
			}
			ws = append(ws, slots)
		}
		r.wireSlots = append(r.wireSlots, ws)
	}
	return r, nil
}

func (r *replay) close() {
	for k, o := range r.oracles {
		r.served[k].OraclePool().Put(o)
	}
	for _, c := range r.wires {
		c.Close()
	}
}

// readOp returns the named layer's call for operation i of the workload: a
// point read on point and mutate (an intact /dist read there), a whole
// batch on batch.
func (r *replay) readOp(layer string) func(i int) outcome {
	if r.f.batches != nil {
		return r.batchOp(layer)
	}
	f := r.f
	switch layer {
	case "plan":
		return func(i int) outcome {
			q := f.points[i%len(f.points)]
			return planPoint(r.oracles[q.src], q)
		}
	case "pool":
		return func(i int) outcome {
			q := f.points[i%len(f.points)]
			return poolPoint(r.served[q.src], q)
		}
	case "store":
		return func(i int) outcome {
			q := f.points[i%len(f.points)]
			st, ok := r.fl.owners[q.src][0].Store.Get(r.fl.keys[q.src])
			if !ok {
				return outcome{failed: true, err: "store miss"}
			}
			return poolPoint(st, q)
		}
	case "server":
		return func(i int) outcome {
			q := f.points[i%len(f.points)]
			typ, pq := r.wirePoint(q)
			d, werr := r.fl.owners[q.src][0].Server.WirePoint(context.Background(), typ, &pq)
			if werr != nil {
				return outcome{failed: true, err: werr.Msg}
			}
			return checkOne(q, int(d))
		}
	case "wire":
		return func(i int) outcome {
			q := f.points[i%len(f.points)]
			typ, pq := r.wirePoint(q)
			d, werr, err := r.wires[r.fl.owners[q.src][0]].Point(context.Background(), typ, &pq)
			if o, bad := wireFailure(werr, err); bad {
				return o
			}
			return checkOne(q, int(d))
		}
	case "server_http":
		return func(i int) outcome {
			q := f.points[i%len(f.points)]
			return r.ops.point(r.fl.owners[q.src][0].Addr(), i)
		}
	default: // cluster
		base := r.fl.lc.URL()
		return func(i int) outcome { return r.ops.point(base, i) }
	}
}

func planPoint(o *ftbfs.Oracle, q pointQuery) outcome {
	if q.a < 0 {
		return checkOne(q, o.Dist(q.v))
	}
	d, err := o.DistAvoiding(q.v, q.a, q.b)
	if err != nil {
		return outcome{failed: true, err: err.Error()}
	}
	return checkOne(q, d)
}

func poolPoint(st *ftbfs.Structure, q pointQuery) outcome {
	var out outcome
	err := st.OraclePool().Do(func(o *ftbfs.Oracle) error {
		out = planPoint(o, q)
		return nil
	})
	if err != nil {
		return outcome{failed: true, err: err.Error()}
	}
	return out
}

// wirePoint encodes a point read as a wire frame.
func (r *replay) wirePoint(q pointQuery) (byte, wire.PointQuery) {
	pq := wire.PointQuery{FP: r.lineage, EpsBits: math.Float64bits(eps), Source: int32(r.f.sources[q.src]),
		Alg: int32(ftbfs.AlgoAuto), V: int32(q.v), A: int32(q.a), B: int32(q.b)}
	if q.a < 0 {
		return wire.TDist, pq
	}
	return wire.TDistAvoiding, pq
}

func wireFailure(werr *wire.Error, err error) (outcome, bool) {
	if err != nil {
		return outcome{failed: true, err: err.Error()}, true
	}
	if werr != nil {
		return outcome{failed: true, err: werr.Msg}, true
	}
	return outcome{}, false
}

// batchOp returns the named layer's call for batch i. Below the router a
// batch is answered per structure (plan, pool, store) or per owning shard
// (server, wire, server_http), one part after another.
func (r *replay) batchOp(layer string) func(i int) outcome {
	f := r.f
	many := func(o *ftbfs.Oracle, j, k int) outcome {
		out, err := o.DistAvoidingMany(r.groups[j][k], nil)
		if err != nil {
			return outcome{failed: true, err: err.Error()}
		}
		var res outcome
		for x, d := range out {
			res = res.plus(checkOne(f.batches[j][r.slotOf[j][k][x]], d))
		}
		return res
	}
	perStructure := func(call func(j, k int) outcome) func(i int) outcome {
		return func(i int) outcome {
			j := i % len(f.batches)
			var o outcome
			for k := range f.sources {
				o = o.plus(call(j, k))
			}
			return o
		}
	}
	pooled := func(st *ftbfs.Structure, j, k int) outcome {
		var res outcome
		if err := st.OraclePool().Do(func(o *ftbfs.Oracle) error { res = many(o, j, k); return nil }); err != nil {
			return outcome{failed: true, err: err.Error()}
		}
		return res
	}
	perShard := func(call func(sb subBatch, slots []wire.BatchSlot) ([]int32, []string, outcome, bool)) func(i int) outcome {
		return func(i int) outcome {
			j := i % len(f.batches)
			var o outcome
			for x, sb := range r.ops.shardBatches[j] {
				dists, errs, fo, bad := call(sb, r.wireSlots[j][x])
				if bad {
					return fo
				}
				for y, d := range dists {
					if errs[y] != "" {
						o = o.plus(outcome{failed: true, err: errs[y]})
						continue
					}
					o = o.plus(checkOne(f.batches[j][sb.slots[y]], int(d)))
				}
			}
			return o
		}
	}
	switch layer {
	case "plan":
		return perStructure(func(j, k int) outcome { return many(r.oracles[k], j, k) })
	case "pool":
		return perStructure(func(j, k int) outcome { return pooled(r.served[k], j, k) })
	case "store":
		return perStructure(func(j, k int) outcome {
			st, ok := r.fl.owners[k][0].Store.Get(r.fl.keys[k])
			if !ok {
				return outcome{failed: true, err: "store miss"}
			}
			return pooled(st, j, k)
		})
	case "server":
		return perShard(func(sb subBatch, slots []wire.BatchSlot) ([]int32, []string, outcome, bool) {
			d, e := sb.shard.Server.WireBatch(context.Background(), slots)
			return d, e, outcome{}, false
		})
	case "wire":
		return perShard(func(sb subBatch, slots []wire.BatchSlot) ([]int32, []string, outcome, bool) {
			d, e, werr, err := r.wires[sb.shard].Batch(context.Background(), slots)
			o, bad := wireFailure(werr, err)
			return d, e, o, bad
		})
	case "server_http":
		return r.ops.shardBatch
	default: // cluster
		base := r.fl.lc.URL()
		return func(i int) outcome { return r.ops.batch(base, i) }
	}
}

// print writes the layer ledger and puts the per-layer metrics into rep.
func (l *ledger) print(w io.Writer, workload string, rep *report) {
	sum := map[string]dist{}
	for _, spec := range ledgerLayers {
		sum[spec.name] = summarize(l.runs[spec.name].lat)
	}
	for _, spec := range ledgerLayers {
		run, d := l.runs[spec.name], sum[spec.name]
		self50, self99 := d.p50, d.p99
		if spec.child != "" {
			self50 -= sum[spec.child].p50
			self99 -= sum[spec.child].p99
		}
		fmt.Fprintf(w, "layer %s %-12s p50 %10.2f us  p99 %10.2f us  self_p50 %10.2f us  self_p99 %10.2f us  (n=%d, beyond_p99=%d, child=%s, failed=%d)\n",
			workload, spec.name, us(d.p50), us(d.p99), us(self50), us(self99), d.n, d.beyondP99, orDash(spec.child), run.bad)
		if run.err != "" {
			fmt.Fprintf(w, "error %s layer %s first: %s\n", workload, spec.name, run.err)
		}
		if run.wrong > 0 {
			fmt.Fprintf(w, "WRONG %s layer %s: %d wrong answers\n", workload, spec.name, run.wrong)
		}
		rep.Metrics[spec.name+".p50_us"] = metric{us(d.p50), "us"}
		rep.Metrics[spec.name+".p99_us"] = metric{us(d.p99), "us"}
		rep.Metrics[spec.name+".self_p50_us"] = metric{us(self50), "us"}
		rep.Metrics[spec.name+".self_p99_us"] = metric{us(self99), "us"}
	}
	cl := sum["cluster"].p50
	fmt.Fprintf(w, "layer %s plan.self share of cluster p50: %.4f (= %.2f us / %.2f us)\n",
		workload, ratio(float64(sum["plan"].p50), float64(cl)), us(sum["plan"].p50), us(cl))
	fmt.Fprintf(w, "layer %s core.delta fast path: %d applied, %d declined\n", workload, l.deltaApplied, l.deltaDeclined)
	fmt.Fprintf(w, "count trace.overhead_frac %.6f ratio (per-call timers over one loop timer, %d cluster calls)\n",
		l.overheadFrac, l.overheadCalls)
	rep.Metrics["trace.overhead_frac"] = metric{l.overheadFrac, "ratio"}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
