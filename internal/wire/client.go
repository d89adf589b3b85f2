package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ftbfs/internal/telemetry"
)

// Client is a pooled, pipelining wire client for one server address. It
// keeps a small fixed set of persistent connections; concurrent requests are
// spread round-robin and multiplexed by request id, so one connection can
// carry many in-flight requests (hedged reads and scatter-gather sub-batches
// share connections instead of dialing). A Client is safe for concurrent use
// and survives server restarts: a dead connection fails its in-flight
// requests with a transport error and is re-dialed on the next request.
type Client struct {
	addr        string
	dialTimeout time.Duration
	reqTimeout  time.Duration

	ids   atomic.Uint64
	next  atomic.Uint64
	mu    sync.Mutex // guards conns slots during (re)dial
	conns []*clientConn
}

// response is what the reader goroutine hands back to a waiter.
type response struct {
	typ     byte
	payload []byte           // owned by the waiter
	spans   []telemetry.Span // a traced response's span trailer
	err     error
}

// chanPool recycles waiter channels: a channel that delivered its response
// is drained and safe to reuse, and point queries are frequent enough that
// the per-request make(chan) shows up. Channels of abandoned waiters
// (timeout or cancel) are simply dropped — the reader may still send to
// them, so they must not be reused.
var chanPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// timerPool recycles request timers; Reset after a receive or Stop is safe
// with Go 1.23+ timer semantics.
var timerPool = sync.Pool{}

// clientConn is one multiplexed connection.
type clientConn struct {
	c  net.Conn
	bw *bufio.Writer

	wmu   sync.Mutex   // serialises frame writes
	wpend atomic.Int64 // senders holding or waiting on wmu

	pmu     sync.Mutex
	pending map[uint64]chan response
	dead    bool
}

// NewClient returns a client for addr; connections are dialed lazily. conns
// bounds the connection pool (values < 1 mean 4 — enough to spread syscall
// load without hoarding server sockets; pipelining provides the parallelism).
func NewClient(addr string, conns int) *Client {
	if conns < 1 {
		conns = 4
	}
	return &Client{
		addr:        addr,
		dialTimeout: 2 * time.Second,
		reqTimeout:  30 * time.Second,
		conns:       make([]*clientConn, conns),
	}
}

// Addr returns the server address the client dials.
func (c *Client) Addr() string { return c.addr }

// Close tears down every pooled connection; in-flight requests fail with a
// transport error. The client remains usable (connections re-dial).
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cc := range c.conns {
		if cc != nil {
			cc.fail(fmt.Errorf("wire: client closed"))
			c.conns[i] = nil
		}
	}
}

// conn returns a live connection from the pool slot the round-robin counter
// picks, dialing if the slot is empty or its connection died. Dialing runs
// outside the pool lock so a slow dial to one address never stalls requests
// that can ride an existing connection.
func (c *Client) conn() (*clientConn, error) {
	slot := int(c.next.Add(1) % uint64(len(c.conns)))
	c.mu.Lock()
	cc := c.conns[slot]
	c.mu.Unlock()
	if cc != nil && !cc.isDead() {
		return cc, nil
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if _, err := nc.Write(preamble[:]); err != nil {
		nc.Close()
		return nil, err
	}
	ncc := &clientConn{
		c:       nc,
		bw:      bufio.NewWriterSize(nc, 32<<10),
		pending: make(map[uint64]chan response),
	}
	c.mu.Lock()
	if cur := c.conns[slot]; cur != nil && cur != cc && !cur.isDead() {
		// Lost a dial race; use the winner and drop ours (no reader yet).
		c.mu.Unlock()
		nc.Close()
		return cur, nil
	}
	c.conns[slot] = ncc
	c.mu.Unlock()
	go ncc.readLoop()
	return ncc, nil
}

// isDead reports whether the connection has failed.
func (cc *clientConn) isDead() bool {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	return cc.dead
}

// readLoop dispatches response frames to their waiters until the connection
// dies, then fails everything still pending.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.c, 32<<10)
	var buf []byte
	for {
		typ, id, _, trace, payload, newBuf, err := readFrame(br, buf)
		buf = newBuf
		if err != nil {
			cc.fail(fmt.Errorf("wire: connection lost: %w", err))
			return
		}
		cc.pmu.Lock()
		ch, ok := cc.pending[id]
		delete(cc.pending, id)
		cc.pmu.Unlock()
		if !ok {
			continue // its waiter gave up; the late answer is discarded
		}
		var r response
		if trace != 0 {
			payload, r.spans, r.err = splitSpanTrailer(payload)
		}
		// Copy out of the read buffer: the waiter owns its payload.
		r.typ, r.payload = typ, append([]byte(nil), payload...)
		ch <- r
	}
}

// fail marks the connection dead, closes it, and fails all waiters.
func (cc *clientConn) fail(err error) {
	cc.pmu.Lock()
	if cc.dead {
		cc.pmu.Unlock()
		return
	}
	cc.dead = true
	pending := cc.pending
	cc.pending = nil
	cc.pmu.Unlock()
	cc.c.Close()
	for _, ch := range pending {
		ch <- response{err: err}
	}
}

// send registers a waiter and writes one request frame.
func (cc *clientConn) send(typ byte, id uint64, budget uint32, trace uint64, payload []byte) (chan response, error) {
	ch := chanPool.Get().(chan response)
	cc.pmu.Lock()
	if cc.dead {
		cc.pmu.Unlock()
		return nil, fmt.Errorf("wire: connection lost")
	}
	cc.pending[id] = ch
	cc.pmu.Unlock()

	cc.wpend.Add(1)
	cc.wmu.Lock()
	buf := getBuf()
	*buf = appendFrame((*buf)[:0], typ, id, budget, trace, payload)
	_, err := cc.bw.Write(*buf)
	// Group flush: if another sender is already waiting on wmu, leave our
	// frame buffered — the last writer in the burst sees the count hit zero
	// and pays one syscall for everyone. Under light load the count is zero
	// immediately and this degenerates to flush-per-request.
	if err == nil && cc.wpend.Add(-1) == 0 {
		err = cc.bw.Flush()
	} else if err != nil {
		cc.wpend.Add(-1)
	}
	putBuf(buf)
	cc.wmu.Unlock()
	if err != nil {
		cc.fail(fmt.Errorf("wire: write failed: %w", err))
		return nil, err
	}
	return ch, nil
}

// drop abandons one waiter and reports whether it was still pending. The
// connection and every other request on it carry on: ids keep frames
// matched, so readLoop simply discards the late response.
func (cc *clientConn) drop(id uint64) bool {
	cc.pmu.Lock()
	_, mine := cc.pending[id]
	delete(cc.pending, id)
	cc.pmu.Unlock()
	return mine
}

// do sends one request and waits for its response. The caller's remaining
// context deadline travels in the frame's budget field (rounded up to a whole
// millisecond) so the server stops working when the caller stops waiting; a
// telemetry trace in the context travels in the trace field so shard-side
// spans share the caller's trace ID, and the spans the server sends back
// are folded into that trace.
//
// Cancellation and the caller's deadline abandon only this request. The
// connection is torn down only by an I/O error or by the client's own
// request timeout — the sign of a hung server — so one caller giving up
// never fails the requests it shares a connection with.
func (c *Client) do(ctx context.Context, typ byte, payload []byte) (response, error) {
	cc, err := c.conn()
	if err != nil {
		return response{}, err
	}
	var trace uint64
	tr := telemetry.TraceFrom(ctx)
	if tr != nil {
		trace = tr.ID()
	}
	var budget uint32
	if dl, ok := ctx.Deadline(); ok {
		d := time.Until(dl)
		if d <= 0 {
			return response{}, context.DeadlineExceeded
		}
		ms := int64((d + time.Millisecond - 1) / time.Millisecond)
		if ms > int64(^uint32(0)) {
			budget = ^uint32(0)
		} else {
			budget = uint32(ms)
		}
	}
	id := c.ids.Add(1)
	ch, err := cc.send(typ, id, budget, trace, payload)
	if err != nil {
		return response{}, err
	}
	var timer *time.Timer
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(c.reqTimeout)
		timer = t
	} else {
		timer = time.NewTimer(c.reqTimeout)
	}
	select {
	case r := <-ch:
		timer.Stop()
		timerPool.Put(timer)
		// The channel delivered its single response; it is empty and safe
		// to reuse.
		chanPool.Put(ch)
		if tr != nil {
			for _, sp := range r.spans {
				tr.AddSpan(sp)
			}
		}
		return r, r.err
	case <-ctx.Done():
		cc.drop(id)
		timer.Stop()
		timerPool.Put(timer)
		return response{}, ctx.Err()
	case <-timer.C:
		err := fmt.Errorf("wire: request timed out after %v", c.reqTimeout)
		if cc.drop(id) {
			// No answer within the client's own timeout: the server is
			// hung, and must not pin this connection forever.
			cc.fail(err)
		}
		timerPool.Put(timer)
		return response{}, err
	}
}

// call sends one request and sorts its response into the payload of the
// expected response type, the server's in-protocol *Error, or a transport
// error — a response of any other type included.
func (c *Client) call(ctx context.Context, typ byte, payload []byte, want byte) ([]byte, *Error, error) {
	r, err := c.do(ctx, typ, payload)
	if err != nil {
		return nil, nil, err
	}
	switch r.typ {
	case want:
		return r.payload, nil, nil
	case RError:
		werr, err := parseError(r.payload)
		if err != nil {
			return nil, nil, err
		}
		return nil, werr, nil
	default:
		return nil, nil, fmt.Errorf("wire: unexpected response type %#x", r.typ)
	}
}

// Point answers one point query. A non-nil *Error is a definitive in-protocol
// answer from the server (mirroring an HTTP status); a non-nil error is a
// transport failure, which a replicated caller answers by failing over to
// another replica.
func (c *Client) Point(ctx context.Context, typ byte, q *PointQuery) (int32, *Error, error) {
	buf := getBuf()
	p, werr, err := c.call(ctx, typ, appendPoint((*buf)[:0], q), RDist)
	putBuf(buf)
	if err != nil || werr != nil {
		return 0, werr, err
	}
	if len(p) != 4 {
		return 0, nil, fmt.Errorf("wire: bad point response length %d", len(p))
	}
	return int32(binary.LittleEndian.Uint32(p)), nil, nil
}

// FetchRecord fetches the record bytes of one structure from a peer shard
// over the persistent connection pool — the handoff fast path. A non-nil
// *Error is the peer's definitive in-protocol answer (404 not held, 413
// record exceeds the frame bound — the caller then falls back to HTTP, which
// has no such bound); a non-nil error is a transport failure.
func (c *Client) FetchRecord(ctx context.Context, k *HandoffKey) ([]byte, *Error, error) {
	buf := getBuf()
	defer putBuf(buf)
	return c.call(ctx, THandoff, appendHandoffKey((*buf)[:0], k), RHandoff)
}

// FetchGraph fetches the canonical text of one graph from a peer shard —
// what a handoff receiver registers before importing the graph's structures.
// Error semantics match FetchRecord.
func (c *Client) FetchGraph(ctx context.Context, fp uint64) ([]byte, *Error, error) {
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], fp)
	return c.call(ctx, TGraph, payload[:], RGraph)
}

// Mutate applies one edge-mutation batch to the graph of the given lineage on
// a peer shard and returns the new generation's identity plus the shard's
// rebuild ledger. A non-nil *Error is the shard's definitive in-protocol
// answer (404 graph not held there, 501 backend without mutation support);
// a non-nil error is a transport failure. Neither is retried here: a batch
// is not idempotent.
func (c *Client) Mutate(ctx context.Context, lineage uint64, muts []MutationWire) (MutateResult, *Error, error) {
	buf := getBuf()
	p, werr, err := c.call(ctx, TMutate, appendMutate((*buf)[:0], lineage, muts), RMutate)
	putBuf(buf)
	if err != nil || werr != nil {
		return MutateResult{}, werr, err
	}
	res, err := parseMutateResponse(p)
	return res, nil, err
}

// Batch answers a batch of slots; dists and errs are parallel to slots with
// "" marking success. A non-nil *Error means the server rejected the whole
// batch; a non-nil error is a transport failure, after which a replicated
// caller re-sends the slots to another replica.
func (c *Client) Batch(ctx context.Context, slots []BatchSlot) ([]int32, []string, *Error, error) {
	buf := getBuf()
	p, werr, err := c.call(ctx, TBatch, appendBatch((*buf)[:0], slots), RBatch)
	putBuf(buf)
	if err != nil || werr != nil {
		return nil, nil, werr, err
	}
	dists, errs, err := parseBatchResponse(p)
	if err == nil && len(dists) != len(slots) {
		err = fmt.Errorf("wire: batch response has %d slots, want %d", len(dists), len(slots))
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return dists, errs, nil, nil
}
