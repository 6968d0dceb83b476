package dpss

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"visapult/internal/netsim"
)

// BlockServer is one DPSS block server: it owns a set of disks (blocks are
// striped across them by logical block number) and serves read/write block
// requests over TCP. A typical DPSS deployment in the paper was four such
// servers, each with several disk controllers and several disks per
// controller.
type BlockServer struct {
	mu     sync.Mutex
	disks  []*Disk
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	shaper *netsim.Shaper
	// connShaper, when set, gives each accepted connection its own shaper.
	connShaper func() *netsim.Shaper
	// pipeWorkers bounds per-connection msgReadv service concurrency; see
	// WithPipelineWorkers.
	pipeWorkers int
	served      int64 // bytes sent to clients
	stored      int64 // bytes written by loaders
	reqs        int64
	errored     int64
}

// ServerOption configures a BlockServer.
type ServerOption func(*BlockServer)

// WithDisks sets the number of disks (default 4) using the default in-memory
// disk with no delay model.
func WithDisks(n int) ServerOption {
	return func(s *BlockServer) {
		if n < 1 {
			n = 1
		}
		s.disks = make([]*Disk, n)
		for i := range s.disks {
			s.disks[i] = NewDisk()
		}
	}
}

// WithServerShaper rate-limits the server's responses, emulating the
// server-side network interface.
func WithServerShaper(sh *netsim.Shaper) ServerOption {
	return func(s *BlockServer) { s.shaper = sh }
}

// WithConnShaperFactory gives every accepted connection its own shaper — the
// per-socket throughput ceiling of a window-limited WAN path, the very effect
// the paper's parallel striped sockets exist to overcome. Contrast
// WithServerShaper, whose single shared shaper models the aggregate link;
// when both are set the per-connection shaper wins.
func WithConnShaperFactory(f func() *netsim.Shaper) ServerOption {
	return func(s *BlockServer) { s.connShaper = f }
}

// NewBlockServer creates a block server with the given options (4 in-memory
// disks by default).
func NewBlockServer(opts ...ServerOption) *BlockServer {
	s := &BlockServer{conns: make(map[net.Conn]struct{}), pipeWorkers: DefaultPipelineWorkers}
	WithDisks(4)(s)
	for _, o := range opts {
		o(s)
	}
	return s
}

// diskFor returns the disk that stores the given logical block, striping
// round-robin by block number.
func (s *BlockServer) diskFor(block int64) *Disk {
	return s.disks[int(block%int64(len(s.disks)))]
}

// Listen starts the server on addr ("127.0.0.1:0" for an ephemeral port) and
// returns the bound address.
func (s *BlockServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the listening address ("" if not listening).
func (s *BlockServer) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *BlockServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *BlockServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var out net.Conn = conn
	if s.connShaper != nil {
		if sh := s.connShaper(); sh != nil {
			out = netsim.NewShapedConn(conn, sh)
		}
	} else if s.shaper != nil {
		out = netsim.NewShapedConn(conn, s.shaper)
	}
	// pipe serves this conn's msgReadv requests out of order through a
	// bounded worker pool; created on the first one, joined on exit.
	var pipe *connPipeline
	defer func() {
		if pipe != nil {
			pipe.stop()
		}
	}()
	for {
		msgType, payload, err := readFrame(conn) //vislint:ignore boundedio idle request loop: a block-server connection legitimately waits forever for its client's next request
		if err != nil {
			return
		}
		s.mu.Lock()
		s.reqs++
		s.mu.Unlock()
		switch msgType {
		case msgWriteBlock:
			s.handleWrite(out, payload)
		case msgDropDataset:
			s.handleDrop(out, payload)
		case msgReadv:
			if pipe == nil {
				pipe = s.startPipeline(out)
			}
			pipe.enqueue(payload)
		default:
			s.replyError(out, fmt.Errorf("%w: unexpected message %d", ErrProtocol, msgType))
		}
	}
}

func (s *BlockServer) handleWrite(out net.Conn, payload []byte) {
	d := &decoder{buf: payload}
	dataset := d.str()
	block := int64(d.u64())
	data := d.bytes()
	if d.err != nil {
		s.replyError(out, d.err)
		return
	}
	s.diskFor(block).WriteBlock(dataset, block, data)
	s.mu.Lock()
	s.stored += int64(len(data))
	s.mu.Unlock()
	reply(out, msgOK, nil)
}

// handleDrop serves a msgDropDataset request: every block of the dataset is
// evicted from the server's disks (the cache-eviction half of a dataset
// removal; the master's catalog entry goes separately via msgRemove).
func (s *BlockServer) handleDrop(out net.Conn, payload []byte) {
	d := &decoder{buf: payload}
	dataset := d.str()
	if d.err != nil {
		s.replyError(out, d.err)
		return
	}
	dropped := s.DropDataset(dataset)
	e := &encoder{}
	e.u32(uint32(dropped))
	reply(out, msgOK, e.buf)
}

func (s *BlockServer) replyError(out net.Conn, err error) {
	s.mu.Lock()
	s.errored++
	s.mu.Unlock()
	reply(out, msgError, []byte(err.Error()))
}

// ServerStats summarizes a block server's activity.
type ServerStats struct {
	Requests     int64
	Errors       int64
	BytesServed  int64
	BytesStored  int64
	Disks        int
	BlocksStored int
}

// Stats returns a snapshot of the server's counters.
func (s *BlockServer) Stats() ServerStats {
	s.mu.Lock()
	st := ServerStats{
		Requests:    s.reqs,
		Errors:      s.errored,
		BytesServed: s.served,
		BytesStored: s.stored,
		Disks:       len(s.disks),
	}
	s.mu.Unlock()
	for _, d := range s.disks {
		st.BlocksStored += d.Stats().Blocks
	}
	return st
}

// DropDataset evicts a dataset from all of the server's disks.
func (s *BlockServer) DropDataset(dataset string) int {
	total := 0
	for _, d := range s.disks {
		total += d.DropDataset(dataset)
	}
	return total
}

// Close stops the listener and tears down open connections.
func (s *BlockServer) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}
