package dpss

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"visapult/internal/netlogger"
	"visapult/internal/netsim"
)

// Client is the DPSS client library: the Go equivalent of the paper's
// dpssOpen / dpssRead / dpssLSeek / dpssClose API. The client keeps one TCP
// connection per block server and issues block requests to all servers in
// parallel, so a single large read engages every server (and every disk
// behind it) at once — "the speed of the client scales with the speed of the
// server, assuming the client host is powerful enough".
type Client struct {
	masterAddr string
	shaper     *netsim.Shaper
	latency    time.Duration
	logger     *netlogger.Logger
	// opTimeout bounds every request/response exchange whose context carries
	// no deadline of its own; 0 disables the bound.
	opTimeout time.Duration
	// stripes is how many parallel connections the client keeps per block
	// server for reads; window bounds pipelined requests in flight per
	// stripe. See WithStripes / WithStripeWindow.
	stripes int
	window  int

	mu     sync.Mutex
	master net.Conn
	conns  map[string]*serverConn
	pools  map[string]*stripePool
	closed bool

	bytesRead int64
	reads     int64
}

// DefaultOpTimeout is the per-exchange deadline applied when neither the
// caller's context nor WithClientTimeout supplies one. A master or block
// server that stops mid-frame (wedged process, dead link with no RST) fails
// the exchange within this bound instead of blocking the caller forever.
const DefaultOpTimeout = 30 * time.Second

// serverConn serializes the lock-step exchanges — block writes and dataset
// drops — on one block-server connection. Reads never use it: they ride the
// server's stripe pool (see stripe.go).
type serverConn struct {
	// opTimeout mirrors Client.opTimeout for exchanges whose context has no
	// deadline; set at dial time, read-only afterwards.
	opTimeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	out  io.Writer
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientShaper paces all of the client's outbound traffic with one
// shaper; combined with a server-side shaper this brackets a WAN emulation.
func WithClientShaper(sh *netsim.Shaper) ClientOption {
	return func(c *Client) { c.shaper = sh }
}

// WithClientLatency adds a fixed delay before each request, emulating WAN
// round-trip latency on the request path.
func WithClientLatency(d time.Duration) ClientOption {
	return func(c *Client) { c.latency = d }
}

// WithClientLogger attaches NetLogger instrumentation to the client.
func WithClientLogger(l *netlogger.Logger) ClientOption {
	return func(c *Client) { c.logger = l }
}

// WithClientTimeout overrides DefaultOpTimeout as the bound on exchanges
// whose context carries no deadline. d <= 0 disables the bound entirely —
// exchanges then block until the peer responds, the connection dies, or the
// caller's context fires.
func WithClientTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d <= 0 {
			d = 0
		}
		c.opTimeout = d
	}
}

// NewClient creates a client for the master at masterAddr. No connection is
// made until the first call.
func NewClient(masterAddr string, opts ...ClientOption) *Client {
	c := &Client{
		masterAddr: masterAddr,
		conns:      make(map[string]*serverConn),
		pools:      make(map[string]*stripePool),
		opTimeout:  DefaultOpTimeout,
		stripes:    DefaultStripes,
		window:     DefaultStripeWindow,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// masterConn lazily dials the master.
func (c *Client) masterConn() (net.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("dpss: client closed")
	}
	if c.master != nil {
		return c.master, nil
	}
	conn, err := net.Dial("tcp", c.masterAddr)
	if err != nil {
		return nil, fmt.Errorf("dpss: dialing master %s: %w", c.masterAddr, err)
	}
	c.master = conn
	return conn, nil
}

// masterCall performs one synchronous request/response with the master,
// bounded by the client's op timeout. An exchange that fails at the I/O level
// leaves the connection mid-frame, so it is dropped; the next call re-dials.
func (c *Client) masterCall(msgType byte, payload []byte) ([]byte, error) {
	conn, err := c.masterConn()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.opTimeout > 0 {
		conn.SetDeadline(time.Now().Add(c.opTimeout)) //nolint:errcheck // the exchange below surfaces a dead conn
	}
	if err := writeFrame(conn, msgType, payload); err != nil {
		c.dropMasterLocked(conn)
		return nil, err
	}
	respType, resp, err := readFrame(conn)
	if err != nil {
		c.dropMasterLocked(conn)
		return nil, err
	}
	if respType == msgError {
		return nil, interpretError(string(resp))
	}
	return resp, nil
}

// dropMasterLocked closes and forgets the master connection after a failed
// exchange left it mid-frame. The identity check keeps a stale drop from
// tearing down a replacement dialed in the meantime.
func (c *Client) dropMasterLocked(conn net.Conn) {
	conn.Close()
	if c.master == conn {
		c.master = nil
	}
}

// interpretError maps an error string from the wire back to a sentinel error
// where possible so callers can use errors.Is.
func interpretError(msg string) error {
	switch {
	case strings.Contains(msg, ErrUnknownDataset.Error()):
		return fmt.Errorf("%w (%s)", ErrUnknownDataset, msg)
	case strings.Contains(msg, ErrDatasetExists.Error()):
		return fmt.Errorf("%w (%s)", ErrDatasetExists, msg)
	case strings.Contains(msg, ErrUnknownBlock.Error()):
		return fmt.Errorf("%w (%s)", ErrUnknownBlock, msg)
	case strings.Contains(msg, ErrAccessDenied.Error()):
		return fmt.Errorf("%w (%s)", ErrAccessDenied, msg)
	default:
		return errors.New(msg)
	}
}

// serverConnFor lazily dials a block server.
func (c *Client) serverConnFor(addr string) (*serverConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("dpss: client closed")
	}
	if sc, ok := c.conns[addr]; ok {
		return sc, nil
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dpss: dialing block server %s: %w", addr, err)
	}
	sc := &serverConn{opTimeout: c.opTimeout, conn: conn, out: c.wrapConn(conn)}
	c.conns[addr] = sc
	return sc, nil
}

// connError marks an exchange failure that left the connection mid-frame:
// the conn must be discarded, not returned to the pool.
type connError struct{ err error }

func (e *connError) Error() string { return e.err.Error() }
func (e *connError) Unwrap() error { return e.err }

// callContext performs one synchronous block request with cancellation: a ctx
// cancelled mid-exchange poisons the connection with an immediate deadline,
// failing the blocked read or write right away instead of at the next frame
// boundary. A ctx with no deadline of its own gets the client's op timeout,
// so an exchange is never unbounded. Either way a failed exchange leaves the
// connection mid-frame and unusable; the error is a *connError and the caller
// must discard the conn (see Client.exchange / dropServerConn).
func (sc *serverConn) callContext(ctx context.Context, msgType byte, payload []byte) ([]byte, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A zero deadline (no bound) also clears one a previous exchange left.
	deadline, _, fromCtx := exchangeDeadline(ctx, sc.opTimeout)
	sc.conn.SetDeadline(deadline) //nolint:errcheck // the exchange below surfaces a dead conn
	stop := context.AfterFunc(ctx, func() { sc.conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	if err := writeFrame(sc.out, msgType, payload); err != nil {
		return nil, &connError{ctxPreferred(ctx, fromCtx, err)}
	}
	respType, resp, err := readFrame(sc.conn)
	if err != nil {
		return nil, &connError{ctxPreferred(ctx, fromCtx, err)}
	}
	if respType == msgError {
		return nil, interpretError(string(resp))
	}
	return resp, nil
}

// exchange runs one request/response against the block server at addr,
// discarding the pooled connection when the exchange broke it (I/O-level
// failure, or a fired context whose poison deadline may land late).
func (c *Client) exchange(ctx context.Context, addr string, msgType byte, payload []byte) ([]byte, error) {
	sc, err := c.serverConnFor(addr)
	if err != nil {
		return nil, err
	}
	resp, err := sc.callContext(ctx, msgType, payload)
	var ce *connError
	// Once the context has fired the connection must go even when the
	// exchange itself squeaked through: the cancellation's AfterFunc may
	// have set (or still be setting) the poison deadline, which would fail
	// every later exchange on a pooled connection.
	if errors.As(err, &ce) || ctx.Err() != nil {
		c.dropServerConn(addr, sc)
	}
	return resp, err
}

// exchangeDeadline is the socket deadline for one exchange: the ctx's own
// deadline when it has one (fromCtx), else now + opTimeout. ok is false — and
// deadline the zero time, which clears any earlier one — when neither bounds
// the exchange.
func exchangeDeadline(ctx context.Context, opTimeout time.Duration) (deadline time.Time, ok, fromCtx bool) {
	if deadline, ok := ctx.Deadline(); ok {
		return deadline, true, true
	}
	if opTimeout > 0 {
		return time.Now().Add(opTimeout), true, false
	}
	return time.Time{}, false, false
}

// ctxPreferred surfaces the context as the error cause when an I/O failure
// was (most likely) induced by it, so callers can errors.Is against
// context.Canceled or context.DeadlineExceeded instead of parsing deadline
// errors. fromCtx says the socket deadline was the ctx's own: that deadline
// can fire a hair before ctx.Err() turns non-nil, so a socket timeout on it
// is the ctx's deadline whatever ctx.Err() reads yet.
func ctxPreferred(ctx context.Context, fromCtx bool, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("dpss: exchange aborted: %w", ctxErr)
	}
	if fromCtx && errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("dpss: exchange aborted: %w", context.DeadlineExceeded)
	}
	return err
}

// Create registers a new dataset with the master and returns its layout.
func (c *Client) Create(name string, size int64, blockSize int) (DatasetInfo, error) {
	e := &encoder{}
	e.str(name).u64(uint64(size)).u32(uint32(blockSize))
	resp, err := c.masterCall(msgCreate, e.buf)
	if err != nil {
		return DatasetInfo{}, err
	}
	return decodeDatasetInfo(resp)
}

// Open looks a dataset up with the master and returns a File handle with
// Unix-like semantics.
func (c *Client) Open(name string) (*File, error) {
	e := &encoder{}
	e.str(name)
	resp, err := c.masterCall(msgOpen, e.buf)
	if err != nil {
		return nil, err
	}
	info, err := decodeDatasetInfo(resp)
	if err != nil {
		return nil, err
	}
	if c.logger != nil {
		c.logger.Log("DPSS_OPEN", netlogger.Str("DATASET", name), netlogger.Int64(netlogger.FieldBytes, info.Size))
	}
	return &File{client: c, info: info}, nil
}

// ListDatasets returns the master's catalog: every dataset name the cluster
// currently holds, sorted. The fabric layer uses it to build a federation-wide
// catalog view, and it doubles as a cheap liveness probe (any response proves
// the master is up).
func (c *Client) ListDatasets() ([]string, error) {
	resp, err := c.masterCall(msgList, nil)
	if err != nil {
		return nil, err
	}
	d := &decoder{buf: resp}
	n := int(d.u32())
	names := make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		names = append(names, d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	return names, nil
}

// Remove deletes a dataset from the cluster: its blocks are evicted from
// every stripe server (best-effort — a dark server simply keeps stale blocks
// that the catalog no longer maps) and then the master's catalog entry is
// dropped. Removing a dataset the cluster does not hold is a no-op, so the
// drain-to-empty path can re-run after a partial failure.
func (c *Client) Remove(name string) error {
	// Compatibility shim: each exchange below is still bounded by the
	// client's op timeout.
	return c.RemoveContext(context.Background(), name) //vislint:ignore ctxbackground ctx-less legacy API; see RemoveContext
}

// RemoveContext is Remove under a context: cancelling ctx aborts the eviction
// or catalog exchange in flight.
func (c *Client) RemoveContext(ctx context.Context, name string) error {
	info, err := c.Stat(name)
	if errors.Is(err, ErrUnknownDataset) {
		return nil
	}
	if err != nil {
		return err
	}
	seen := make(map[string]bool, len(info.Servers))
	for _, addr := range info.Servers {
		if seen[addr] {
			continue
		}
		seen[addr] = true
		e := &encoder{}
		e.str(name)
		c.exchange(ctx, addr, msgDropDataset, e.buf) //nolint:errcheck // best-effort eviction
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	e := &encoder{}
	e.str(name)
	_, err = c.masterCall(msgRemove, e.buf)
	return err
}

// Stat returns a dataset's layout without opening it.
func (c *Client) Stat(name string) (DatasetInfo, error) {
	e := &encoder{}
	e.str(name)
	resp, err := c.masterCall(msgStat, e.buf)
	if err != nil {
		return DatasetInfo{}, err
	}
	return decodeDatasetInfo(resp)
}

// dropServerConn closes and forgets a server connection a cancelled exchange
// left mid-frame. The sc identity check keeps a stale drop from tearing down
// a replacement connection dialed in the meantime.
func (c *Client) dropServerConn(addr string, sc *serverConn) {
	c.mu.Lock()
	if cur, ok := c.conns[addr]; ok && cur == sc {
		delete(c.conns, addr)
	}
	c.mu.Unlock()
	sc.conn.Close()
}

// writeBlock stores one logical block on its server, bounded by ctx and the
// client's op timeout like every other exchange.
func (c *Client) writeBlock(ctx context.Context, info DatasetInfo, block int64, data []byte) error {
	e := &encoder{}
	e.str(info.Name).u64(uint64(block)).bytes(data)
	_, err := c.exchange(ctx, info.ServerFor(block), msgWriteBlock, e.buf)
	return err
}

// ClientStats summarizes client activity.
type ClientStats struct {
	// BytesRead is the data volume delivered to callers.
	BytesRead int64
	Reads     int64
	Servers   int
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	servers := make(map[string]struct{}, len(c.conns)+len(c.pools))
	for addr := range c.conns {
		servers[addr] = struct{}{}
	}
	for addr := range c.pools {
		servers[addr] = struct{}{}
	}
	return ClientStats{BytesRead: c.bytesRead, Reads: c.reads, Servers: len(servers)}
}

// Close tears down every connection, failing any exchange still in flight.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	var first error
	if c.master != nil {
		if err := c.master.Close(); err != nil && first == nil {
			first = err
		}
		c.master = nil
	}
	for addr, sc := range c.conns {
		if err := sc.conn.Close(); err != nil && first == nil {
			first = err
		}
		delete(c.conns, addr)
	}
	pools := make([]*stripePool, 0, len(c.pools))
	for addr, p := range c.pools {
		pools = append(pools, p)
		delete(c.pools, addr)
	}
	c.mu.Unlock()
	// Stripe teardown resolves in-flight calls (sends on their resp
	// channels), so it happens outside the client lock.
	errClosed := errors.New("dpss: client closed")
	for _, p := range pools {
		for _, s := range p.stripes {
			s.close(errClosed)
		}
	}
	return first
}

// File is an open dataset with Unix-like read semantics (the dpssRead /
// dpssLSeek of the original API), implementing io.Reader, io.ReaderAt and
// io.Seeker.
type File struct {
	client *Client
	info   DatasetInfo
	mu     sync.Mutex
	offset int64
}

// Info returns the dataset layout.
func (f *File) Info() DatasetInfo { return f.info }

// Size returns the dataset size in bytes.
func (f *File) Size() int64 { return f.info.Size }

// ReadAt reads len(p) bytes starting at offset off, fetching every involved
// block from its server in parallel. It implements io.ReaderAt, whose
// signature has no context; each block exchange is still bounded by the
// client's op timeout.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	return f.ReadAtContext(context.Background(), p, off) //vislint:ignore ctxbackground io.ReaderAt compatibility shim; see ReadAtContext
}

// ReadAtContext is ReadAt under a context: cancelling ctx aborts the block
// exchanges in flight (each blocked read fails immediately) rather than
// letting them run to completion. It is a single-extent ReadvScatter, so a
// large read is pipelined over the per-server stripe pools under a bounded
// in-flight window — never a goroutine per block.
func (f *File) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("dpss: negative offset %d", off)
	}
	if off >= f.info.Size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > f.info.Size {
		want = f.info.Size - off
	}
	if want == 0 {
		return 0, nil
	}
	ext := [1]Extent{{Off: off, Len: int(want), Dst: p[:want]}}
	if err := f.client.readvScatter(ctx, f.info, ext[:]); err != nil {
		return 0, err
	}
	if want < int64(len(p)) {
		return int(want), io.EOF
	}
	return int(want), nil
}

// Read reads from the current offset, advancing it. It implements io.Reader.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	off := f.offset
	f.mu.Unlock()
	n, err := f.ReadAt(p, off)
	f.mu.Lock()
	f.offset = off + int64(n)
	f.mu.Unlock()
	return n, err
}

// Seek implements io.Seeker (the dpssLSeek of the original API).
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var next int64
	switch whence {
	case io.SeekStart:
		next = offset
	case io.SeekCurrent:
		next = f.offset + offset
	case io.SeekEnd:
		next = f.info.Size + offset
	default:
		return 0, fmt.Errorf("dpss: bad whence %d", whence)
	}
	if next < 0 {
		return 0, fmt.Errorf("dpss: negative resulting offset %d", next)
	}
	f.offset = next
	return next, nil
}

// Close releases the handle. The client's connections stay up for other
// files.
func (f *File) Close() error { return nil }

// WriteAt stores len(p) bytes at offset off, used by the dataset loader. The
// write must be block-aligned except for the final partial block. It
// implements io.WriterAt, whose signature has no context; each block exchange
// is still bounded by the client's op timeout.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	return f.WriteAtContext(context.Background(), p, off) //vislint:ignore ctxbackground io.WriterAt compatibility shim; see WriteAtContext
}

// WriteAtContext is WriteAt under a context: cancelling ctx aborts the block
// exchange in flight (a blocked write fails immediately) rather than letting
// the remaining blocks go out.
func (f *File) WriteAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	if off%int64(f.info.BlockSize) != 0 {
		return 0, fmt.Errorf("dpss: write offset %d not block-aligned", off)
	}
	blockSize := int64(f.info.BlockSize)
	written := 0
	for written < len(p) {
		block := (off + int64(written)) / blockSize
		end := written + f.info.BlockSize
		if end > len(p) {
			end = len(p)
		}
		if err := f.client.writeBlock(ctx, f.info, block, p[written:end]); err != nil {
			return written, err
		}
		written = end
	}
	return written, nil
}
