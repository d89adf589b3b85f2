package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"ftbfs"
	"ftbfs/internal/telemetry"
	"ftbfs/internal/wire"
)

// This file implements wire.Backend on *Server: the binary protocol answers
// through exactly the same key resolution, store lookups, and pooled oracles
// as the HTTP handlers, so the two transports are answer-identical by
// construction — only the encoding differs.

// fromWire decodes a wire point query of frame type typ (a batch slot is
// TDistAvoiding or TDistAvoidingVertex) into a Query.
func fromWire(typ byte, pq *wire.PointQuery) (Query, error) {
	q := Query{FailureQuery: ftbfs.FailureQuery{V: int(pq.V), FailedU: int(pq.A), FailedV: int(pq.B)}}
	switch typ {
	case wire.TDist:
		q.Intact = true
	case wire.TDistAvoiding:
	case wire.TDistAvoidingVertex:
		q.Vertex = true
	default:
		return q, fmt.Errorf("unknown point type %#x", typ)
	}
	var err error
	q.Key, err = makeKey(pq.FP, int(pq.Source), pq.Eps(), int(pq.Alg), q.Vertex)
	return q, err
}

// Frame encodes q for the binary protocol — the inverse of fromWire: the
// point frame type, and the batch slot whose embedded PointQuery is the
// point payload.
func (q *Query) Frame() (byte, wire.BatchSlot) {
	sl := wire.BatchSlot{PointQuery: wire.PointQuery{
		FP:      q.Key.Graph,
		EpsBits: math.Float64bits(q.Key.Eps),
		Source:  int32(q.Key.Source),
		Alg:     int32(q.Key.Alg),
		V:       int32(q.V),
		A:       -1,
		B:       -1,
	}, Vertex: q.Vertex}
	switch {
	case q.Intact:
		return wire.TDist, sl
	case q.Vertex:
		sl.A = int32(q.FailedU)
		return wire.TDistAvoidingVertex, sl
	}
	sl.A, sl.B = int32(q.FailedU), int32(q.FailedV)
	return wire.TDistAvoiding, sl
}

// shedWire passes a wire request through the same load shedder as the HTTP
// handlers. It returns a non-nil in-protocol error when the request is shed
// (503, mirroring HTTP's Retry-After semantics) or its budget ran out while
// queued (504); otherwise the caller owns a work slot and must release it.
func (s *Server) shedWire(ctx context.Context) (*limiter, *wire.Error) {
	work := s.work.Load()
	if !work.acquire(ctx, s.draining.Load()) {
		s.m.errs.Inc()
		if ctx.Err() != nil {
			return nil, &wire.Error{Code: http.StatusGatewayTimeout, Msg: "deadline budget exhausted while queued"}
		}
		s.m.shed.Inc()
		return nil, &wire.Error{Code: http.StatusServiceUnavailable, Msg: "server overloaded; retry later"}
	}
	return work, nil
}

// observeWire records one finished wire request into its frame type's
// outcome-labeled histogram. Inline starts and a direct array index keep the
// point-query path allocation-free.
func (s *Server) observeWire(typ byte, start time.Time, werr *wire.Error) {
	if int(typ) >= len(s.m.wireByType) {
		return
	}
	out := telemetry.OutcomeOK
	if werr != nil {
		out = telemetry.OutcomeOf(werr.Code)
	}
	s.m.wireByType[typ].Observe(time.Since(start), out)
}

// WirePoint answers one binary point query (wire.Backend). It wraps the
// actual dispatch so the latency observation needs no deferred closure —
// the point path must stay allocation-free.
func (s *Server) WirePoint(ctx context.Context, typ byte, q *wire.PointQuery) (int32, *wire.Error) {
	s.m.wireRequests.Inc()
	start := time.Now()
	d, werr := s.wirePoint(ctx, typ, q)
	s.observeWire(typ, start, werr)
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		// The span travels back in the response's span trailer and is also
		// retained in this shard's own /debug/traces ring.
		tr.Add("shard.wire", start)
		s.traces.Record(tr, "wire", time.Since(start))
	}
	return d, werr
}

func (s *Server) wirePoint(ctx context.Context, typ byte, pq *wire.PointQuery) (int32, *wire.Error) {
	work, werr := s.shedWire(ctx)
	if werr != nil {
		return 0, werr
	}
	defer work.release()
	q, err := fromWire(typ, pq)
	var d int
	if err == nil {
		d, err = s.answerPoint(ctx, q)
	}
	if err != nil {
		s.m.errs.Inc()
		return 0, &wire.Error{Code: statusFor(err), Msg: err.Error()}
	}
	s.m.queries.Inc()
	return int32(d), nil
}

// WireMutate applies one binary mutation batch (wire.MutateBackend): the
// same store.Mutate the HTTP /mutate handler delegates to, so both transports
// apply batches with identical validation and swap semantics.
func (s *Server) WireMutate(ctx context.Context, lineage uint64, wmuts []wire.MutationWire) (wire.MutateResult, *wire.Error) {
	s.m.wireRequests.Inc()
	start := time.Now()
	res, werr := s.wireMutate(ctx, lineage, wmuts)
	s.observeWire(wire.TMutate, start, werr)
	return res, werr
}

func (s *Server) wireMutate(ctx context.Context, lineage uint64, wmuts []wire.MutationWire) (wire.MutateResult, *wire.Error) {
	work, werr := s.shedWire(ctx)
	if werr != nil {
		return wire.MutateResult{}, werr
	}
	defer work.release()
	if _, ok := s.store.Graph(lineage); !ok {
		s.m.errs.Inc()
		err := &UnknownGraphError{Fingerprint: lineage}
		return wire.MutateResult{}, &wire.Error{Code: statusFor(err), Msg: err.Error()}
	}
	muts := make([]ftbfs.Mutation, len(wmuts))
	for i, m := range wmuts {
		// The wire parser already rejected ops outside {0, 1}; the numbering
		// matches ftbfs.MutInsert/MutDelete by design.
		muts[i] = ftbfs.Mutation{Op: ftbfs.MutationOp(m.Op), U: int(m.U), V: int(m.V)}
	}
	res, err := s.store.Mutate(ctx, lineage, muts)
	if err != nil {
		s.m.errs.Inc()
		return wire.MutateResult{}, &wire.Error{Code: statusFor(err), Msg: err.Error()}
	}
	return wire.MutateResult{
		Lineage:       res.Lineage,
		Gen:           res.Gen,
		FP:            res.Fingerprint,
		RebuildsDelta: uint32(res.RebuildsDelta),
		RebuildsFull:  uint32(res.RebuildsFull),
	}, nil
}

// WireBatch answers one binary batch (wire.Backend): slots group by resolved
// key and funnel into the same answerGroups machinery as POST /batch-query.
func (s *Server) WireBatch(ctx context.Context, slots []wire.BatchSlot) ([]int32, []string) {
	s.m.wireRequests.Inc()
	start := time.Now()
	dists := make([]int, len(slots))
	errs := make([]string, len(slots))
	if work, werr := s.shedWire(ctx); werr != nil {
		// A shed batch fails every slot with the shed message; the router's
		// per-slot retry machinery then redistributes them.
		out := make([]int32, len(slots))
		for i := range slots {
			out[i] = int32(ftbfs.Unreachable)
			errs[i] = werr.Msg
		}
		s.observeWire(wire.TBatch, start, werr)
		return out, errs
	} else {
		defer work.release()
	}
	groups := groupQueries(len(slots), func(i int) (Query, error) {
		typ := byte(wire.TDistAvoiding)
		if slots[i].Vertex {
			typ = wire.TDistAvoidingVertex
		}
		return fromWire(typ, &slots[i].PointQuery)
	}, dists, errs)
	s.m.queries.Add(s.answerGroups(ctx, groups, dists, errs))
	out := make([]int32, len(dists))
	var failed bool
	for i, d := range dists {
		out[i] = int32(d)
		if errs[i] != "" {
			s.m.errs.Inc()
			failed = true
		}
	}
	var batchErr *wire.Error
	if failed {
		batchErr = &wire.Error{Code: http.StatusBadRequest}
	}
	s.observeWire(wire.TBatch, start, batchErr)
	return out, errs
}
