package dpss

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"visapult/internal/netsim"
)

// This file is the client half of the striped, pipelined read path (see
// readv.go for the wire format). Each block server gets a stripePool of
// persistent connections, and every stripe pipelines seq-correlated msgReadv
// requests under a bounded in-flight window, with one reader goroutine per
// live connection pumping the responses. A connection that fails
// mid-exchange is torn down and the next use of its stripe dials a
// replacement.

// DefaultStripes is how many parallel connections the client keeps per block
// server unless WithStripes overrides it.
const DefaultStripes = 4

// DefaultStripeWindow is the default bound on pipelined requests in flight
// per stripe.
const DefaultStripeWindow = 32

// WithStripes sets how many parallel connections ("stripes") the client
// keeps to each block server (minimum 1) — the paper's parallel-socket
// striped transfers. Block reads fan out over every stripe; writes and drops
// keep their own lock-step connection.
func WithStripes(n int) ClientOption {
	return func(c *Client) {
		if n >= 1 {
			c.stripes = n
		}
	}
}

// WithStripeWindow bounds how many pipelined requests one stripe may have in
// flight (minimum 1). The window replaces the old goroutine-per-block
// fan-out: a full window blocks the issuer, so a large read keeps at most
// stripes x window exchanges outstanding per server.
func WithStripeWindow(n int) ClientOption {
	return func(c *Client) {
		if n >= 1 {
			c.window = n
		}
	}
}

// stripePool is the set of stripe connections to one block server.
type stripePool struct {
	c    *Client
	addr string

	stripes []*stripe     // fixed at construction
	next    atomic.Uint32 // round-robin batch cursor
}

// stripe is one persistent connection slot in a pool: the conn itself (re-
// dialed after failures), its in-flight window, and transfer counters.
type stripe struct {
	pool *stripePool
	idx  int

	window chan struct{} // in-flight request slots

	connMu sync.Mutex  // guards cur and serializes frame writes
	cur    *stripeConn // guarded by connMu

	bytes atomic.Int64 // block bytes delivered on this stripe
	reads atomic.Int64 // exchanges completed
	fails atomic.Int64 // conns torn down mid-exchange
}

// stripeConn is one live connection of a stripe with its pipelining state.
// A fresh stripeConn replaces a dead one; the pending map never migrates, so
// a killed conn's bookkeeping cannot leak into its replacement.
type stripeConn struct {
	s    *stripe
	conn net.Conn
	out  io.Writer

	mu      sync.Mutex
	cond    *sync.Cond             // signalled when pending grows or the conn dies (guarded by mu)
	pending map[uint32]*stripeCall // guarded by mu
	nextSeq uint32                 // guarded by mu
	dead    bool                   // guarded by mu
}

// stripeCall is one in-flight pipelined request.
type stripeCall struct {
	sc  *stripeConn
	seq uint32
	// dsts are the scatter destinations, in wire order. delivering marks the
	// reader actively writing into them; cancelled marks a withdrawn call
	// whose late response must be drained without touching them. All three
	// are guarded by stripeConn.mu.
	dsts       [][]byte
	delivering bool
	cancelled  bool
	resp       chan error    // buffered (cap 1); receives the call's resolution exactly once
	done       chan struct{} // closed when the call resolves
}

// poolFor returns (creating if needed) the stripe pool for addr.
func (c *Client) poolFor(addr string) (*stripePool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("dpss: client closed")
	}
	if p, ok := c.pools[addr]; ok {
		return p, nil
	}
	n := c.stripes
	if n < 1 {
		n = 1
	}
	w := c.window
	if w < 1 {
		w = 1
	}
	p := &stripePool{c: c, addr: addr, stripes: make([]*stripe, n)}
	for i := range p.stripes {
		p.stripes[i] = &stripe{pool: p, idx: i, window: make(chan struct{}, w)}
	}
	c.pools[addr] = p
	return p, nil
}

// pick returns the next stripe round-robin.
func (p *stripePool) pick() *stripe {
	return p.stripes[int(p.next.Add(1))%len(p.stripes)]
}

// wrapConn applies the client's WAN emulation (its shaper) to a freshly
// dialed conn's write side.
func (c *Client) wrapConn(conn net.Conn) io.Writer {
	if c.shaper != nil {
		return netsim.NewShapedConn(conn, c.shaper)
	}
	return conn
}

// connect returns the stripe's live connection, dialing a replacement when a
// previous failure poisoned it. Every fresh conn gets a reader goroutine that
// pumps responses until the conn dies.
func (s *stripe) connect(ctx context.Context) (*stripeConn, error) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.cur != nil {
		return s.cur, nil
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", s.pool.addr)
	if err != nil {
		return nil, fmt.Errorf("dpss: dialing block server %s (stripe %d): %w", s.pool.addr, s.idx, err)
	}
	sc := &stripeConn{
		s:       s,
		conn:    conn,
		out:     s.pool.c.wrapConn(conn),
		pending: make(map[uint32]*stripeCall),
	}
	sc.cond = sync.NewCond(&sc.mu)
	s.cur = sc
	go sc.readLoop()
	return sc, nil
}

// dropConn detaches a dead conn from its stripe so the next use re-dials.
// The identity check keeps a stale drop from tearing down a replacement.
func (s *stripe) dropConn(sc *stripeConn) {
	s.connMu.Lock()
	if s.cur == sc {
		s.cur = nil
	}
	s.connMu.Unlock()
}

// release returns one in-flight window slot.
func (s *stripe) release() { <-s.window }

// start acquires a window slot and launches one msgReadv exchange. The
// returned call owns the slot until it resolves; on error the slot has
// already been released.
func (s *stripe) start(ctx context.Context, payload []byte, dsts [][]byte) (*stripeCall, error) {
	select {
	case s.window <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	sc, err := s.connect(ctx)
	if err != nil {
		s.release()
		return nil, err
	}
	return sc.send(ctx, payload, dsts)
}

// send registers a pipelined call and writes its msgReadv request frame (seq
// prefix + payload) under the stripe's write lock with a write deadline, so a
// wedged peer cannot pin the sender. The payload buffer is fully consumed
// before send returns and may be reused by the caller.
func (sc *stripeConn) send(ctx context.Context, payload []byte, dsts [][]byte) (*stripeCall, error) {
	s := sc.s
	sc.mu.Lock()
	if sc.dead {
		sc.mu.Unlock()
		s.release()
		return nil, &connError{errors.New("dpss: stripe connection closed")}
	}
	sc.nextSeq++
	call := &stripeCall{
		sc: sc, seq: sc.nextSeq, dsts: dsts,
		resp: make(chan error, 1), done: make(chan struct{}),
	}
	sc.pending[call.seq] = call
	sc.cond.Signal()
	sc.mu.Unlock()

	deadline, _, fromCtx := exchangeDeadline(ctx, s.pool.c.opTimeout)
	s.connMu.Lock()
	sc.conn.SetWriteDeadline(deadline) //nolint:errcheck // the write below surfaces a dead conn
	err := writeFrameSeq(sc.out, msgReadv, call.seq, payload)
	s.connMu.Unlock()
	if err != nil {
		err = &connError{ctxPreferred(ctx, fromCtx, err)}
		sc.kill(err)
		return nil, err
	}
	return call, nil
}

// writeFrameSeq writes a [type][len][seq][payload] frame without gluing seq
// and payload into a fresh buffer.
func writeFrameSeq(w io.Writer, msgType byte, seq uint32, payload []byte) error {
	var hdr [9]byte
	hdr[0] = msgType
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)+4))
	binary.BigEndian.PutUint32(hdr[5:9], seq)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readLoop is the stripe's response pump: it sleeps until a call is pending
// (responses only ever follow requests, so an idle conn arms no deadline and
// burns no CPU), then reads one response frame and resolves the matching
// call, scattering block data straight into the caller's buffers. Any I/O or
// protocol failure kills the conn and fails every pending call; the next use
// of the stripe dials a replacement.
func (sc *stripeConn) readLoop() {
	c := sc.s.pool.c
	var hdr [9]byte
	for {
		if !sc.awaitPending() {
			return
		}
		// The whole header must arrive within one op timeout once requests
		// are outstanding; deliver refreshes the deadline per extent for
		// large scattered payloads.
		if c.opTimeout > 0 {
			sc.conn.SetReadDeadline(time.Now().Add(c.opTimeout)) //nolint:errcheck // the read below surfaces a dead conn
		} else {
			sc.conn.SetReadDeadline(time.Time{}) //nolint:errcheck
		}
		if _, err := io.ReadFull(sc.conn, hdr[:]); err != nil {
			sc.kill(&connError{err})
			return
		}
		msgType := hdr[0]
		n := binary.BigEndian.Uint32(hdr[1:5])
		seq := binary.BigEndian.Uint32(hdr[5:9])
		if n < 4 || n > maxFrame {
			sc.kill(&connError{fmt.Errorf("%w: response frame of %d bytes", ErrProtocol, n)})
			return
		}
		remain := int64(n) - 4
		sc.mu.Lock()
		call := sc.pending[seq]
		var cancelled bool
		if call != nil {
			call.delivering = true
			cancelled = call.cancelled
		}
		sc.mu.Unlock()
		if call == nil {
			sc.kill(&connError{fmt.Errorf("%w: response for unknown request %d", ErrProtocol, seq)})
			return
		}
		callErr, fatal := sc.deliver(call, msgType, remain, cancelled)
		sc.finish(call, callErr)
		if fatal != nil {
			sc.kill(&connError{fatal})
			return
		}
	}
}

// awaitPending blocks until a call is pending or the conn is dead, reporting
// whether the pump should keep reading.
func (sc *stripeConn) awaitPending() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for len(sc.pending) == 0 && !sc.dead {
		sc.cond.Wait()
	}
	return !sc.dead
}

// deliver consumes one response body. callErr is the call's resolution;
// fatal, when non-nil, means the conn is out of sync or broken and must die.
// A server-side error reply (msgError2) resolves only its call — the conn
// stays healthy for the other in-flight requests. Any other response type is
// fatal, even for a withdrawn call.
func (sc *stripeConn) deliver(call *stripeCall, msgType byte, remain int64, cancelled bool) (callErr, fatal error) {
	conn, c := sc.conn, sc.s.pool.c
	refresh := func() {
		if c.opTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.opTimeout)) //nolint:errcheck // the reads below surface a dead conn
		}
	}
	if msgType != msgOK2 && msgType != msgError2 {
		err := fmt.Errorf("%w: unexpected response type %d", ErrProtocol, msgType)
		return err, err
	}
	if cancelled {
		// The caller withdrew: drain the late response so the conn stays
		// usable for the other in-flight calls, touching nothing of the
		// caller's buffers.
		if _, err := io.CopyN(io.Discard, conn, remain); err != nil {
			return err, err
		}
		return context.Canceled, nil
	}
	if msgType == msgOK2 {
		var want int64
		for _, d := range call.dsts {
			want += int64(len(d))
		}
		if remain != want {
			err := fmt.Errorf("%w: scatter response of %d bytes, requested %d", ErrProtocol, remain, want)
			return err, err
		}
		if err := scatterExtents(conn, call.dsts, refresh); err != nil {
			return err, err
		}
		sc.s.bytes.Add(want)
		return nil, nil
	}
	if remain > 1<<20 {
		err := fmt.Errorf("%w: oversized error reply (%d bytes)", ErrProtocol, remain)
		return err, err
	}
	msg := make([]byte, remain)
	if _, err := io.ReadFull(conn, msg); err != nil {
		return err, err
	}
	return interpretError(string(msg)), nil
}

// finish resolves one call: it leaves the pending set, its waiter receives
// err, and its window slot returns to the stripe.
func (sc *stripeConn) finish(call *stripeCall, err error) {
	sc.mu.Lock()
	delete(sc.pending, call.seq)
	sc.mu.Unlock()
	close(call.done)
	call.resp <- err
	sc.s.reads.Add(1)
	sc.s.release()
}

// kill marks the conn dead, closes it, detaches it from its stripe and fails
// every pending call. A call the reader is actively delivering into is left
// for the reader itself to resolve — its in-progress scatter fails when the
// closed conn's read errors — so no two goroutines ever race on one call's
// buffers.
func (sc *stripeConn) kill(err error) {
	sc.mu.Lock()
	if sc.dead {
		sc.mu.Unlock()
		return
	}
	sc.dead = true
	var victims []*stripeCall
	for seq, call := range sc.pending {
		if call.delivering {
			continue
		}
		delete(sc.pending, seq)
		victims = append(victims, call)
	}
	sc.cond.Broadcast()
	sc.mu.Unlock()
	sc.conn.Close()
	sc.s.dropConn(sc)
	sc.s.fails.Add(1)
	for _, call := range victims {
		close(call.done)
		call.resp <- err
		sc.s.release()
	}
}

// wait blocks for the call's resolution. On ctx cancellation the call is
// withdrawn: if its response is not yet being delivered it is tombstoned
// (the reader later drains the bytes without touching the caller's buffers);
// if delivery has begun, the conn is poisoned and wait blocks until the
// delivery attempt finishes. Either way, once wait returns no goroutine will
// write into the call's destination slices.
func (call *stripeCall) wait(ctx context.Context) error {
	select {
	case err := <-call.resp:
		return err
	case <-ctx.Done():
	}
	sc := call.sc
	sc.mu.Lock()
	if cur, ok := sc.pending[call.seq]; ok && cur == call {
		if !call.delivering {
			call.cancelled = true
			call.dsts = nil
			sc.mu.Unlock()
			return ctx.Err()
		}
		sc.mu.Unlock()
		// Delivery raced the cancellation: poison the read so a mid-scatter
		// reader aborts promptly, then wait for it to let go of the buffers.
		// (The pump re-arms the deadline before its next header read, so a
		// poison that lands after a completed delivery is harmless.)
		sc.conn.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck
		<-call.done
		<-call.resp
		return ctx.Err()
	}
	sc.mu.Unlock()
	// Resolved between the select and the lock; drain the slot's send.
	<-call.resp
	return ctx.Err()
}

// close tears down the stripe's live conn (if any), failing its in-flight
// calls.
func (s *stripe) close(err error) {
	s.connMu.Lock()
	sc := s.cur
	s.cur = nil
	s.connMu.Unlock()
	if sc != nil {
		sc.kill(err)
	}
}

// StripeStat describes one stripe connection's activity, for the per-stripe
// throughput gauges in visapultd's /metrics and dpssctl's status columns.
type StripeStat struct {
	Server    string `json:"server"`
	Stripe    int    `json:"stripe"`
	Connected bool   `json:"connected"`
	Bytes     int64  `json:"bytes"`    // block bytes delivered on this stripe
	Reads     int64  `json:"reads"`    // exchanges completed on this stripe
	Failures  int64  `json:"failures"` // conns torn down mid-exchange
}

// StripeStats snapshots per-stripe transfer counters for every block server
// the client has read from, sorted by server address then stripe index.
func (c *Client) StripeStats() []StripeStat {
	c.mu.Lock()
	pools := make([]*stripePool, 0, len(c.pools))
	for _, p := range c.pools {
		pools = append(pools, p)
	}
	c.mu.Unlock()
	out := make([]StripeStat, 0, len(pools)*DefaultStripes)
	for _, p := range pools {
		for _, s := range p.stripes {
			s.connMu.Lock()
			connected := s.cur != nil
			s.connMu.Unlock()
			out = append(out, StripeStat{
				Server: p.addr, Stripe: s.idx, Connected: connected,
				Bytes: s.bytes.Load(), Reads: s.reads.Load(), Failures: s.fails.Load(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Server != out[j].Server {
			return out[i].Server < out[j].Server
		}
		return out[i].Stripe < out[j].Stripe
	})
	return out
}
