package wire

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
)

// The paper's viewer receives data "over multiple simultaneous network
// connections (implemented with a custom TCP-based protocol over striped
// sockets)". A Stripe reproduces that transport: one logical byte stream
// carried over N parallel sockets. The writer chops the stream into
// sequence-numbered chunks distributed round-robin over the sockets (chunk s
// travels on lane s mod N); the reader pulls chunks from every socket
// concurrently and reassembles them in sequence order. Striping lets a single
// logical connection fill a long-fat-pipe WAN when one TCP stream's window
// would not.
//
// Buffer ownership. Write never copies: the lane writers send slices of the
// caller's buffer and Write returns only when every lane is done with it, so
// the caller may reuse or keep sharing p immediately (the io.Writer
// contract). On the read side every lane owns laneWindow recycled chunk
// buffers; a chunk is copied exactly once in user space, from its lane
// buffer into the destination of Read. The reassembly window is therefore
// bounded at lanes x laneWindow chunks: a lane that runs ahead blocks until
// the reader catches up, and a chunk outside the window is a protocol error
// rather than buffered.

// DefaultChunkSize is the striping granularity used when none is specified.
const DefaultChunkSize = 64 << 10

const (
	// maxStripeChunk is the largest chunk a lane sends or accepts.
	maxStripeChunk = 1 << 20
	// laneWindow is the number of chunk buffers each lane's reader recycles.
	laneWindow = 4
	// laneBatch is how many chunks a lane writer puts into one vectored write.
	laneBatch = 8
	// closeFlushTimeout bounds how long an orderly Close waits for the
	// end-of-stream markers to leave before it closes the sockets anyway.
	closeFlushTimeout = 5 * time.Second

	chunkHeaderSize = 12         // sequence number (8), length (4)
	chunkEOF        = 0xFFFFFFFF // length field of the end-of-stream marker
)

// stripeMagic opens the per-socket handshake of a striped dial.
var stripeMagic = [8]byte{'V', 'S', 'P', 'S', 'T', 'R', 'P', '1'}

// stripeGroupCounter disambiguates stripe groups originating from the same
// process.
var stripeGroupCounter atomic.Uint32

// laneJob is one lane's share of a Write: every lanes-th chunk of p starting
// at byte offset off, the first carrying sequence number seq. An eof job
// sends the end-of-stream marker instead.
type laneJob struct {
	p   []byte
	off int
	seq uint64
	eof bool
}

// laneMsg is what a lane reader hands the reassembling Read: a filled chunk
// buffer, or (end set) the lane's final word.
type laneMsg struct {
	lane int
	seq  uint64
	buf  []byte // never empty for a chunk: a free window slot is one with a nil buf

	end    bool  // the lane stopped; no chunk follows
	marker bool  // it stopped at an end-of-stream marker carrying seq
	err    error // it stopped on a torn or hostile stream
}

// lane is one underlying connection with its writer's and reader's reusable
// state.
type lane struct {
	conn io.ReadWriteCloser

	// Writer goroutine.
	jobs chan laneJob // unbuffered: a job handed over is always completed
	whdr [laneBatch * chunkHeaderSize]byte
	vec  [][]byte
	bufs net.Buffers // persistent so WriteTo's receiver does not escape per write

	// Reader goroutine.
	rhdr [chunkHeaderSize]byte
	free chan []byte // the laneWindow chunk buffers not currently holding data

	// Owned by the stripe's single reader (Read).
	held  int  // chunks of this lane waiting in the window
	ended bool // the lane's end message has arrived
}

// Stripe is a logical bidirectional byte stream carried over several
// underlying connections. It implements io.ReadWriteCloser and is intended to
// be wrapped by NewConn. A Stripe supports one concurrent reader and one
// concurrent writer, matching the Conn contract.
type Stripe struct {
	lanes     []*lane
	chunkSize int

	done      chan struct{} // closed by Close: releases every goroutine
	closeOnce sync.Once
	closeErr  error
	closed    atomic.Bool
	wg        sync.WaitGroup // lane writers and readers

	// Write side. wmu is held for the whole of a Write, so an orderly Close
	// (which needs the lanes idle to append the end-of-stream markers) can
	// tell a Write is in flight — and then aborts it by closing the sockets
	// instead of queueing behind it.
	wmu    sync.Mutex
	wseq   uint64
	wdone  chan struct{} // one token per completed lane job
	werrMu sync.Mutex
	werr   error

	// Read side, owned by the single reader.
	readOnce sync.Once
	rch      chan laneMsg // capacity covers every lane buffer plus every lane's end message
	window   []laneMsg    // ring indexed by seq mod len(window)
	rnext    uint64
	cur      laneMsg // chunk being copied out
	rpending []byte  // unread remainder of cur.buf
	endSeq   uint64  // highest sequence number an end-of-stream marker carried
	haveEnd  bool
	rerr     error
}

// NewStripe builds a Stripe over the given connections. chunkSize <= 0 uses
// DefaultChunkSize; sizes above 1 MiB are clamped. The connection order must
// match on both ends only in count, not in index: reassembly is driven
// entirely by sequence numbers.
func NewStripe(conns []io.ReadWriteCloser, chunkSize int) (*Stripe, error) {
	if len(conns) == 0 {
		return nil, errors.New("wire: stripe needs at least one connection")
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	chunkSize = min(chunkSize, maxStripeChunk)
	n := len(conns)
	s := &Stripe{
		lanes:     make([]*lane, n),
		chunkSize: chunkSize,
		done:      make(chan struct{}),
		wdone:     make(chan struct{}, n), // one job per lane at most, so a lane never blocks reporting it
		rch:       make(chan laneMsg, n*laneWindow+n),
		window:    make([]laneMsg, n*laneWindow),
	}
	for i, c := range conns {
		l := &lane{
			conn: c,
			jobs: make(chan laneJob),
			vec:  make([][]byte, 0, 2*laneBatch),
			free: make(chan []byte, laneWindow),
		}
		for range laneWindow {
			l.free <- nil // allocated on first use: a write-only end holds no chunk buffers
		}
		s.lanes[i] = l
		s.wg.Add(1)
		go s.writeLoop(l)
	}
	return s, nil
}

// Lanes returns the number of underlying connections.
func (s *Stripe) Lanes() int { return len(s.lanes) }

// writeLoop is one lane's writer goroutine.
func (s *Stripe) writeLoop(l *lane) {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case job := <-l.jobs:
			if err := s.sendJob(l, job); err != nil {
				s.setWriteErr(err)
			}
			s.wdone <- struct{}{}
		}
	}
}

// sendJob writes one lane's chunks of a Write straight from the caller's
// buffer: chunk headers come from the lane's scratch array, and up to
// laneBatch (header, chunk) pairs go out per vectored write.
func (s *Stripe) sendJob(l *lane, job laneJob) error {
	if job.eof {
		binary.BigEndian.PutUint64(l.whdr[:8], job.seq)
		binary.BigEndian.PutUint32(l.whdr[8:], chunkEOF)
		_, err := l.conn.Write(l.whdr[:chunkHeaderSize])
		return err
	}
	stride := len(s.lanes)
	for off, seq := job.off, job.seq; off < len(job.p); {
		l.vec = l.vec[:0]
		for i := 0; i < laneBatch && off < len(job.p); i++ {
			data := job.p[off:min(off+s.chunkSize, len(job.p))]
			hdr := l.whdr[i*chunkHeaderSize : (i+1)*chunkHeaderSize]
			binary.BigEndian.PutUint64(hdr[:8], seq)
			binary.BigEndian.PutUint32(hdr[8:], uint32(len(data)))
			l.vec = append(l.vec, hdr, data)
			off += stride * s.chunkSize
			seq += uint64(stride)
		}
		l.bufs = l.vec
		_, err := l.bufs.WriteTo(l.conn)
		// Do not pin the caller's buffer until this lane's next write.
		clear(l.vec)
		l.bufs = nil
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *Stripe) setWriteErr(err error) {
	s.werrMu.Lock()
	if s.werr == nil {
		s.werr = err
	}
	s.werrMu.Unlock()
}

func (s *Stripe) writeErr() error {
	s.werrMu.Lock()
	defer s.werrMu.Unlock()
	return s.werr
}

// errStripeClosed reports a Write on (or aborted by) a closed stripe.
var errStripeClosed = errors.New("wire: write on closed stripe")

// Write chops p into chunks, hands every lane its share and waits until the
// lanes have written them: p is never copied and never referenced after
// Write returns. It returns len(p) unless a lane failed or the stripe was
// closed underneath it.
func (s *Stripe) Write(p []byte) (int, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed.Load() {
		return 0, errStripeClosed
	}
	if err := s.writeErr(); err != nil {
		return 0, err
	}
	chunks := (len(p) + s.chunkSize - 1) / s.chunkSize
	n := len(s.lanes)
	handed := 0
dispatch:
	for j := 0; j < min(chunks, n); j++ {
		seq := s.wseq + uint64(j)
		select {
		case s.lanes[seq%uint64(n)].jobs <- laneJob{p: p, off: j * s.chunkSize, seq: seq}:
			handed++
		case <-s.done:
			break dispatch
		}
	}
	for ; handed > 0; handed-- {
		<-s.wdone
	}
	s.wseq += uint64(chunks)
	if err := s.writeErr(); err != nil {
		return 0, err
	}
	if s.closed.Load() {
		return 0, errStripeClosed
	}
	return len(p), nil
}

// errStripeSequence reports chunk sequence numbers no well-formed peer sends.
var errStripeSequence = errors.New("wire: stripe chunk sequence violation")

// readLoop is one lane's reader goroutine: it fills recycled chunk buffers
// from its socket and hands them to the reassembling Read until the lane
// ends, then posts the lane's end message. Neither send can block: a lane has
// at most laneWindow buffers in flight and rch has room for all of them.
func (s *Stripe) readLoop(i int) {
	defer s.wg.Done()
	l := s.lanes[i]
	end := laneMsg{lane: i, end: true}
	defer func() { s.rch <- end }()
	var last uint64
	for first := true; ; first = false {
		if _, err := io.ReadFull(l.conn, l.rhdr[:]); err != nil {
			// A socket that closes between chunks (the peer went away, or
			// this end was closed) ends the lane quietly; whether the stream
			// as a whole is complete is Read's call. A close inside a header
			// is a torn stream.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				end.err = err
			}
			return
		}
		seq := binary.BigEndian.Uint64(l.rhdr[:8])
		n := binary.BigEndian.Uint32(l.rhdr[8:])
		if n == chunkEOF {
			end.marker, end.seq = true, seq
			return
		}
		if n == 0 || n > maxStripeChunk {
			end.err = fmt.Errorf("wire: stripe chunk of %d bytes (a writer sends 1 to %d)", n, maxStripeChunk)
			return
		}
		if !first && seq <= last {
			end.err = fmt.Errorf("%w: lane sent %d after %d", errStripeSequence, seq, last)
			return
		}
		last = seq
		var buf []byte
		select {
		case buf = <-l.free:
		case <-s.done:
			return
		}
		if cap(buf) < int(n) {
			buf = make([]byte, max(int(n), s.chunkSize))
		}
		buf = buf[:n]
		if _, err := io.ReadFull(l.conn, buf); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised n bytes
			}
			end.err = err
			return
		}
		s.rch <- laneMsg{lane: i, seq: seq, buf: buf}
	}
}

// startReaders lazily launches one reader goroutine per socket the first time
// Read is called, so a write-only user never spawns them.
func (s *Stripe) startReaders() {
	s.readOnce.Do(func() {
		for i := range s.lanes {
			s.wg.Add(1)
			go s.readLoop(i)
		}
	})
}

// Read reassembles the striped stream in sequence order. A stream that ends
// with chunks missing — a lane died mid-chunk, or later sequence numbers
// arrived and an earlier one never did — ends in io.ErrUnexpectedEOF, never
// in a clean io.EOF.
func (s *Stripe) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	s.startReaders()
	for {
		if len(s.rpending) > 0 {
			n := copy(p, s.rpending)
			s.rpending = s.rpending[n:]
			if len(s.rpending) == 0 {
				s.recycle()
			}
			return n, nil
		}
		if slot := &s.window[s.rnext%uint64(len(s.window))]; slot.buf != nil {
			s.cur, *slot = *slot, laneMsg{}
			s.lanes[s.cur.lane].held--
			s.rnext++
			s.rpending = s.cur.buf
			continue
		}
		if s.rerr != nil {
			return 0, s.rerr
		}
		// The next chunk can still arrive only on a lane that has not ended
		// and has a buffer to read it into. A lane whose buffers all sit in
		// the window is waiting for this reader, not the other way round.
		live, ended, buffered := 0, 0, 0
		for _, l := range s.lanes {
			buffered += l.held
			switch {
			case l.ended:
				ended++
			case l.held < laneWindow:
				live++
			}
		}
		switch {
		case live > 0:
			s.accept(<-s.rch)
			continue
		case ended < len(s.lanes):
			s.rerr = fmt.Errorf("%w: chunk %d never arrived and the window is full", errStripeSequence, s.rnext)
		case buffered > 0 || (s.haveEnd && s.endSeq != s.rnext):
			s.rerr = io.ErrUnexpectedEOF
		default:
			s.rerr = io.EOF
		}
		return 0, s.rerr
	}
}

// recycle returns the drained current chunk's buffer to its lane.
func (s *Stripe) recycle() {
	s.lanes[s.cur.lane].free <- s.cur.buf
	s.cur = laneMsg{}
}

// accept files one lane message: an end message is counted (its error, if
// any, becomes the stream's), a chunk goes into its window slot. A chunk
// behind the window, beyond it, or in an occupied slot is a protocol error.
func (s *Stripe) accept(m laneMsg) {
	if m.end {
		s.lanes[m.lane].ended = true
		if m.err != nil && s.rerr == nil {
			s.rerr = m.err
		}
		if m.marker {
			s.endSeq, s.haveEnd = max(s.endSeq, m.seq), true
		}
		return
	}
	w := uint64(len(s.window))
	slot := &s.window[m.seq%w]
	if m.seq < s.rnext || m.seq-s.rnext >= w || slot.buf != nil {
		if s.rerr == nil {
			s.rerr = fmt.Errorf("%w: chunk %d outside the window at %d", errStripeSequence, m.seq, s.rnext)
		}
		s.lanes[m.lane].free <- m.buf
		return
	}
	*slot = m
	s.lanes[m.lane].held++
}

// Close ends the stripe. With no Write in flight it is orderly: every lane
// sends an end-of-stream marker (bounded by closeFlushTimeout) before the
// sockets close. A Write in flight — typically one wedged behind a peer that
// stopped reading — is aborted instead: closing the sockets fails the lane
// writes, the Write returns an error, and the peer sees a torn stream. Close
// returns once every goroutine of the stripe has exited.
func (s *Stripe) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.close() })
	return s.closeErr
}

func (s *Stripe) close() error {
	s.closed.Store(true)
	if s.wmu.TryLock() {
		for _, l := range s.lanes {
			l.jobs <- laneJob{seq: s.wseq, eof: true} // lanes are idle: no Write holds wmu
		}
		timeout := time.NewTimer(closeFlushTimeout)
	flush:
		for range s.lanes {
			select {
			case <-s.wdone:
			case <-timeout.C:
				break flush
			}
		}
		timeout.Stop()
		s.wmu.Unlock()
	}
	close(s.done)
	var firstErr error
	for _, l := range s.lanes {
		if err := l.conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.wg.Wait()
	if werr := s.writeErr(); werr != nil && firstErr == nil {
		firstErr = werr
	}
	return firstErr
}

// DialStriped opens n parallel TCP connections to addr and returns them as a
// single logical Stripe. The remote end must accept them with a
// StripeListener.
func DialStriped(addr string, n, chunkSize int) (*Stripe, error) {
	return dialStriped(context.Background(), addr, n, chunkSize) //vislint:ignore ctxbackground ctx-less entry point; DialLink dials stripes with its caller's ctx
}

// dialStriped is DialStriped with the lane dials bounded by ctx.
func dialStriped(ctx context.Context, addr string, n, chunkSize int) (*Stripe, error) {
	if n < 1 {
		n = 1
	}
	group := stripeGroupCounter.Add(1)
	nonce := uint32(time.Now().UnixNano())
	conns := make([]io.ReadWriteCloser, 0, n)
	cleanup := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	var d net.Dialer
	for i := 0; i < n; i++ {
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("wire: dial stripe lane %d: %w", i, err)
		}
		var hello [20]byte
		copy(hello[:8], stripeMagic[:])
		binary.BigEndian.PutUint32(hello[8:], group)
		binary.BigEndian.PutUint32(hello[12:], nonce)
		binary.BigEndian.PutUint16(hello[16:], uint16(i))
		binary.BigEndian.PutUint16(hello[18:], uint16(n))
		// Bound the handshake: a lane whose peer stalls before reading the
		// hello must not pin the dial forever. Cleared once the lane joins
		// the stripe — steady-state deadlines belong to the stripe's owner.
		c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		if _, err := c.Write(hello[:]); err != nil {
			c.Close()
			cleanup()
			return nil, fmt.Errorf("wire: stripe handshake: %w", err)
		}
		c.SetDeadline(time.Time{}) //nolint:errcheck
		conns = append(conns, c)
	}
	return NewStripe(conns, chunkSize)
}

// StripeListener groups incoming striped connections back into logical
// Stripes. Each call to Accept blocks until every lane of the next stripe
// group has arrived.
type StripeListener struct {
	l         net.Listener
	chunkSize int

	mu      sync.Mutex
	partial map[uint64][]laneConn
	ready   chan []laneConn
	errCh   chan error
	started bool
	closed  bool
}

type laneConn struct {
	index int
	total int
	conn  net.Conn
}

// NewStripeListener wraps a net.Listener. chunkSize <= 0 uses
// DefaultChunkSize.
func NewStripeListener(l net.Listener, chunkSize int) *StripeListener {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &StripeListener{
		l:         l,
		chunkSize: chunkSize,
		partial:   make(map[uint64][]laneConn),
		ready:     make(chan []laneConn, 8),
		errCh:     make(chan error, 1),
	}
}

// Addr returns the listener's address.
func (sl *StripeListener) Addr() net.Addr { return sl.l.Addr() }

// acceptLoop performs handshakes and groups lanes by (group, nonce).
func (sl *StripeListener) acceptLoop() {
	for {
		c, err := sl.l.Accept()
		if err != nil {
			sl.errCh <- err
			return
		}
		go sl.handshake(c)
	}
}

func (sl *StripeListener) handshake(c net.Conn) {
	var hello [20]byte
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	if string(hello[:8]) != string(stripeMagic[:]) {
		c.Close()
		return
	}
	group := binary.BigEndian.Uint32(hello[8:])
	nonce := binary.BigEndian.Uint32(hello[12:])
	index := int(binary.BigEndian.Uint16(hello[16:]))
	total := int(binary.BigEndian.Uint16(hello[18:]))
	if total < 1 || index < 0 || index >= total {
		c.Close()
		return
	}
	key := uint64(group)<<32 | uint64(nonce)
	sl.mu.Lock()
	sl.partial[key] = append(sl.partial[key], laneConn{index: index, total: total, conn: c})
	lanes := sl.partial[key]
	complete := len(lanes) == total
	if complete {
		delete(sl.partial, key)
	}
	sl.mu.Unlock()
	if complete {
		sort.Slice(lanes, func(i, j int) bool { return lanes[i].index < lanes[j].index })
		sl.ready <- lanes
	}
}

// Accept returns the next fully assembled Stripe.
func (sl *StripeListener) Accept() (*Stripe, error) {
	sl.mu.Lock()
	if !sl.started {
		sl.started = true
		go sl.acceptLoop()
	}
	sl.mu.Unlock()
	select {
	case lanes := <-sl.ready:
		conns := make([]io.ReadWriteCloser, len(lanes))
		for i, lc := range lanes {
			conns[i] = lc.conn
		}
		return NewStripe(conns, sl.chunkSize)
	case err := <-sl.errCh:
		return nil, err
	}
}

// Close stops the listener. Already-accepted stripes stay usable.
func (sl *StripeListener) Close() error {
	sl.mu.Lock()
	if sl.closed {
		sl.mu.Unlock()
		return nil
	}
	sl.closed = true
	for _, lanes := range sl.partial {
		for _, lc := range lanes {
			lc.conn.Close()
		}
	}
	sl.partial = make(map[uint64][]laneConn)
	sl.mu.Unlock()
	return sl.l.Close()
}
