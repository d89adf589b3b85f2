package wire

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ftbfs/internal/telemetry"
)

// testBackend answers arithmetically so tests can verify routing without a
// real store: point answers V + A + B + int32(typ), batches echo per-slot,
// and A == -7 triggers an in-protocol error.
type testBackend struct{}

func (testBackend) WirePoint(ctx context.Context, typ byte, q *PointQuery) (int32, *Error) {
	if q.A == -7 {
		return 0, &Error{Code: 404, Msg: "unknown graph 00000000000000ff"}
	}
	if q.A == -9 {
		// Busy-server stand-in: wait out the caller's budget, then prove the
		// budget arrived by answering with its expiry instead of a distance.
		select {
		case <-ctx.Done():
			return 0, &Error{Code: 504, Msg: "deadline budget exhausted"}
		case <-time.After(2 * time.Second):
			return 0, &Error{Code: 500, Msg: "no budget arrived"}
		}
	}
	return q.V + q.A + q.B + int32(typ), nil
}

func (testBackend) WireBatch(ctx context.Context, slots []BatchSlot) ([]int32, []string) {
	dists := make([]int32, len(slots))
	errs := make([]string, len(slots))
	for i, s := range slots {
		if s.A == -7 {
			dists[i] = -1
			errs[i] = fmt.Sprintf("slot %d failed", i)
			continue
		}
		dists[i] = s.V * 2
		if s.Vertex {
			dists[i]++
		}
	}
	return dists, errs
}

// startWire serves testBackend on a loopback listener.
func startWire(t *testing.T) (addr string, shutdown func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, ln, testBackend{})
	}()
	return ln.Addr().String(), func() {
		cancel()
		<-done
	}
}

func TestPointRoundTrip(t *testing.T) {
	addr, shutdown := startWire(t)
	defer shutdown()
	c := NewClient(addr, 2)
	defer c.Close()

	d, werr, err := c.Point(context.Background(), TDistAvoiding, &PointQuery{V: 10, A: 2, B: 3})
	if err != nil || werr != nil {
		t.Fatalf("Point: %v / %v", werr, err)
	}
	if want := int32(10 + 2 + 3 + int32(TDistAvoiding)); d != want {
		t.Fatalf("Point = %d, want %d", d, want)
	}

	// In-protocol errors carry their HTTP-equivalent status through.
	_, werr, err = c.Point(context.Background(), TDist, &PointQuery{V: 1, A: -7})
	if err != nil {
		t.Fatalf("Point transport error: %v", err)
	}
	if werr == nil || werr.Code != 404 {
		t.Fatalf("Point error = %v, want status 404", werr)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	addr, shutdown := startWire(t)
	defer shutdown()
	c := NewClient(addr, 1)
	defer c.Close()

	slots := []BatchSlot{
		{PointQuery: PointQuery{V: 5}},
		{PointQuery: PointQuery{V: 6, A: -7}},
		{PointQuery: PointQuery{V: 7}, Vertex: true},
	}
	dists, errs, werr, err := c.Batch(context.Background(), slots)
	if err != nil || werr != nil {
		t.Fatalf("Batch: %v / %v", werr, err)
	}
	if dists[0] != 10 || dists[2] != 15 {
		t.Fatalf("Batch dists = %v", dists)
	}
	if errs[0] != "" || errs[1] != "slot 1 failed" || errs[2] != "" {
		t.Fatalf("Batch errs = %q", errs)
	}
}

// TestPipelinedConcurrency hammers one client (few conns, many goroutines)
// to exercise id multiplexing; run with -race.
func TestPipelinedConcurrency(t *testing.T) {
	addr, shutdown := startWire(t)
	defer shutdown()
	c := NewClient(addr, 2)
	defer c.Close()

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := int32(w*1000 + i)
				d, werr, err := c.Point(context.Background(), TDist, &PointQuery{V: v, A: 1, B: 1})
				if err != nil || werr != nil {
					t.Errorf("Point: %v / %v", werr, err)
					return
				}
				if want := v + 2 + int32(TDist); d != want {
					t.Errorf("Point = %d, want %d", d, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestClientSurvivesServerRestart kills the server mid-stream and expects
// transport errors (not hangs), then a full recovery once a new server
// listens on the same address.
func TestClientSurvivesServerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan struct{})
	go func() { defer close(done1); Serve(ctx1, ln, testBackend{}) }()

	c := NewClient(addr, 1)
	defer c.Close()
	if _, _, err := c.Point(context.Background(), TDist, &PointQuery{V: 1}); err != nil {
		t.Fatalf("warm-up point: %v", err)
	}

	cancel1()
	<-done1
	// The dead connection surfaces as a transport error (possibly after one
	// failed redial); it must not hang.
	cctx, ccancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer ccancel()
	if _, _, err := c.Point(cctx, TDist, &PointQuery{V: 1}); err == nil {
		t.Fatalf("point against dead server succeeded")
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() { defer close(done2); Serve(ctx2, ln2, testBackend{}) }()
	defer func() { cancel2(); <-done2 }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := c.Point(context.Background(), TDist, &PointQuery{V: 2}); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered after server restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerRejectsGarbage sends a non-preamble byte stream (an HTTP request,
// say) and expects the server to just hang up.
func TestServerRejectsGarbage(t *testing.T) {
	addr, shutdown := startWire(t)
	defer shutdown()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	fmt.Fprintf(nc, "GET /dist HTTP/1.1\r\nHost: x\r\n\r\n")
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b [1]byte
	if _, err := nc.Read(b[:]); err == nil {
		t.Fatalf("server answered a non-wire client")
	}
}

// FuzzWireFrame feeds arbitrary bytes to the frame reader and every payload
// parser; nothing may panic or over-allocate, and whatever parses must
// re-encode cleanly.
func FuzzWireFrame(f *testing.F) {
	var seed []byte
	seed = appendFrame(seed, TDistAvoiding, 7, 0, 0, appendPoint(nil, &PointQuery{FP: 1, V: 2, A: 3, B: 4}))
	f.Add(seed)
	f.Add(appendFrame(nil, TBatch, 9, 250, 0, appendBatch(nil, []BatchSlot{{PointQuery: PointQuery{V: 1}, Vertex: true}})))
	f.Add(appendFrame(nil, RError, 1, 0, 7, appendError(nil, 404, "nope")))
	f.Add(appendFrame(nil, RBatch, 2, 0, 0, appendBatchResponse(nil, []int32{1, -1}, []string{"", "bad"})))
	f.Add(appendFrame(nil, RDist, 3, 0, 5, appendSpanTrailer([]byte{1, 0, 0, 0}, []telemetry.Span{{Name: "shard.wire", DurUs: 4}})))
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, _, _, trace, payload, _, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if trace != 0 {
			if payload, _, err = splitSpanTrailer(payload); err != nil {
				return
			}
		}
		switch typ {
		case TDist, TDistAvoiding, TDistAvoidingVertex:
			if q, err := parsePoint(payload); err == nil {
				if got := appendPoint(nil, &q); !bytes.Equal(got, payload) {
					t.Fatalf("point payload not canonical")
				}
			}
		case TBatch:
			if slots, err := parseBatch(payload); err == nil {
				if got := appendBatch(nil, slots); !bytes.Equal(got, payload) {
					t.Fatalf("batch payload not canonical")
				}
			}
		case RError:
			if e, err := parseError(payload); err == nil {
				if got := appendError(nil, e.Code, e.Msg); !bytes.Equal(got, payload) {
					t.Fatalf("error payload not canonical")
				}
			}
		case RBatch:
			// Batch responses have a sparse error section; parse only.
			parseBatchResponse(payload)
		}
	})
}

// TestFrameTraceRoundTrip proves the v3 trace field survives encode/decode.
func TestFrameTraceRoundTrip(t *testing.T) {
	const want = uint64(0xabcdef0123456789)
	frame := appendFrame(nil, TDist, 3, 17, want, appendPoint(nil, &PointQuery{V: 1, A: -1, B: -1}))
	typ, id, budget, trace, _, _, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if typ != TDist || id != 3 || budget != 17 || trace != want {
		t.Fatalf("frame fields = %x/%d/%d/%x, want %x/3/17/%x", typ, id, budget, trace, TDist, want)
	}
}

// traceBackend records the trace ID each point request's context carried.
type traceBackend struct {
	mu   sync.Mutex
	seen []uint64
}

func (b *traceBackend) WirePoint(ctx context.Context, typ byte, q *PointQuery) (int32, *Error) {
	var id uint64
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		id = tr.ID()
		tr.Add("backend.point", time.Now())
	}
	b.mu.Lock()
	b.seen = append(b.seen, id)
	b.mu.Unlock()
	return q.V, nil
}

func (b *traceBackend) WireBatch(ctx context.Context, slots []BatchSlot) ([]int32, []string) {
	return make([]int32, len(slots)), make([]string, len(slots))
}

// TestClientPropagatesTraceID proves a telemetry trace in the caller's
// context reaches the backend through the frame's trace field — and that
// untraced requests arrive with a zero ID.
func TestClientPropagatesTraceID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	backend := &traceBackend{}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); Serve(ctx, ln, backend) }()
	defer func() { cancel(); <-done }()

	c := NewClient(ln.Addr().String(), 1)
	defer c.Close()

	tr := telemetry.NewTrace(0x1234)
	tctx := telemetry.WithTrace(context.Background(), tr)
	if _, werr, err := c.Point(tctx, TDist, &PointQuery{V: 5, A: -1, B: -1}); err != nil || werr != nil {
		t.Fatalf("traced Point: %v / %v", werr, err)
	}
	if _, werr, err := c.Point(context.Background(), TDist, &PointQuery{V: 6, A: -1, B: -1}); err != nil || werr != nil {
		t.Fatalf("untraced Point: %v / %v", werr, err)
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if len(backend.seen) != 2 || backend.seen[0] != 0x1234 || backend.seen[1] != 0 {
		t.Fatalf("backend saw trace IDs %x, want [1234 0]", backend.seen)
	}
}

// TestTracedResponseCarriesSpans proves the version-4 span trailer: the
// spans a backend records for a traced request come back in the response
// and land in the caller's trace, while an untraced response is
// byte-identical to the version-3 encoding.
func TestTracedResponseCarriesSpans(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); Serve(ctx, ln, &traceBackend{}) }()
	defer func() { cancel(); <-done }()
	c := NewClient(ln.Addr().String(), 1)
	defer c.Close()

	tr := telemetry.NewTrace(0x77)
	d, werr, err := c.Point(telemetry.WithTrace(context.Background(), tr), TDist, &PointQuery{V: 9, A: -1, B: -1})
	if err != nil || werr != nil || d != 9 {
		t.Fatalf("traced Point = %d, %v / %v; want 9", d, werr, err)
	}
	if spans := tr.Spans(); len(spans) != 1 || spans[0].Name != "backend.point" {
		t.Fatalf("caller's trace holds %+v, want the backend's span", spans)
	}

	var got bytes.Buffer
	q := appendPoint(nil, &PointQuery{V: 9, A: -1, B: -1})
	if err := answer(context.Background(), &got, &traceBackend{}, TDist, 4, 0, 0, q); err != nil {
		t.Fatal(err)
	}
	if want := appendFrame(nil, RDist, 4, 0, 0, []byte{9, 0, 0, 0}); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("untraced response = %x, want the v3 bytes %x", got.Bytes(), want)
	}
}

// slowBackend answers each point query with its target after a fixed delay,
// or with a 504 once the frame's budget runs out first.
type slowBackend struct{ delay time.Duration }

func (b slowBackend) WirePoint(ctx context.Context, typ byte, q *PointQuery) (int32, *Error) {
	select {
	case <-time.After(b.delay):
		return q.V, nil
	case <-ctx.Done():
		return 0, &Error{Code: 504, Msg: "deadline budget exhausted"}
	}
}

func (slowBackend) WireBatch(ctx context.Context, slots []BatchSlot) ([]int32, []string) {
	return make([]int32, len(slots)), make([]string, len(slots))
}

// TestClientCancelDropsOnlyItsWaiter puts 8 slow requests on one shared
// connection and abandons one of them, by cancelling its context or by
// letting its deadline expire. Only that request may fail: its 7 neighbours
// on the connection must all be answered.
func TestClientCancelDropsOnlyItsWaiter(t *testing.T) {
	cases := []struct {
		name    string
		abandon func() (context.Context, context.CancelFunc)
	}{
		{"cancel", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(20*time.Millisecond, cancel)
			return ctx, cancel
		}},
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 20*time.Millisecond)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); Serve(ctx, ln, slowBackend{delay: 30 * time.Millisecond}) }()
			defer func() { cancel(); <-done }()
			c := NewClient(ln.Addr().String(), 1)
			defer c.Close()
			if _, _, err := c.Point(context.Background(), TDist, &PointQuery{V: 1}); err != nil {
				t.Fatalf("warm-up point: %v", err) // dials the single connection
			}

			const n = 8
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ctx, cancel := context.WithCancel(context.Background())
					if i == 0 {
						ctx, cancel = tc.abandon()
					}
					defer cancel()
					d, werr, err := c.Point(ctx, TDist, &PointQuery{V: int32(i)})
					switch {
					case err != nil:
						errs[i] = err
					case werr != nil:
						errs[i] = werr
					case d != int32(i):
						errs[i] = fmt.Errorf("answer %d, want %d", d, i)
					}
				}(i)
			}
			wg.Wait()
			if errs[0] == nil {
				t.Error("the abandoned request reported success")
			}
			failed := 0
			for i, err := range errs[1:] {
				if err != nil {
					failed++
					t.Logf("neighbour %d: %v", i+1, err)
				}
			}
			if failed > 0 {
				t.Fatalf("%d of %d neighbours failed", failed, n-1)
			}
		})
	}
}
