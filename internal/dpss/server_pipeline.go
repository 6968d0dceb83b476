package dpss

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// DefaultPipelineWorkers is how many msgReadv requests one client connection
// may have in service concurrently unless WithPipelineWorkers overrides it.
const DefaultPipelineWorkers = 4

// WithPipelineWorkers sets the per-connection msgReadv service concurrency
// (minimum 1): a bounded queue feeds this many workers, so the server answers
// sequenced requests out of order as its disks allow while a flood of
// requests can never spawn unbounded goroutines.
func WithPipelineWorkers(n int) ServerOption {
	return func(s *BlockServer) {
		if n >= 1 {
			s.pipeWorkers = n
		}
	}
}

// connPipeline serves one connection's msgReadv requests: a bounded queue
// feeds a small worker pool, replies serialize over the conn under a write
// lock, and requests complete in whatever order the disks allow. It is
// created lazily on the first msgReadv and joined when the conn's read loop
// exits.
type connPipeline struct {
	s   *BlockServer
	out net.Conn
	req chan []byte // request payloads, seq prefix first
	wg  sync.WaitGroup
	wmu sync.Mutex // serializes response writes on out
}

// startPipeline spins up the worker pool for one connection.
func (s *BlockServer) startPipeline(out net.Conn) *connPipeline {
	workers := s.pipeWorkers
	if workers < 1 {
		workers = DefaultPipelineWorkers
	}
	p := &connPipeline{s: s, out: out, req: make(chan []byte, 2*workers)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for r := range p.req {
				p.serve(r)
			}
		}()
	}
	return p
}

// enqueue hands one request to the pool, blocking (backpressure on the
// conn's read loop) when all workers are busy and the queue is full.
func (p *connPipeline) enqueue(payload []byte) {
	p.req <- payload
}

// stop closes the queue and joins the workers; called when the conn's read
// loop exits.
func (p *connPipeline) stop() {
	close(p.req)
	p.wg.Wait()
}

// serve answers one msgReadv, whose payload leads with the u32 sequence
// number its response must echo: every extent is cut from its block (each
// distinct block is read from disk once — the client sends extents in block
// order) and the concatenated data streams back in one bounded write.
func (p *connPipeline) serve(payload []byte) {
	if len(payload) < 4 {
		p.replyErr2(0, fmt.Errorf("%w: sequenced request of %d bytes", ErrProtocol, len(payload)))
		return
	}
	seq := binary.BigEndian.Uint32(payload)
	dataset, exts, err := decodeReadvRequest(payload[4:])
	if err != nil {
		p.replyErr2(seq, err)
		return
	}
	parts := make([][]byte, 0, len(exts))
	var total int64
	lastBlock := int64(-1)
	var lastData []byte
	for _, x := range exts {
		if x.block != lastBlock {
			data, err := p.s.diskFor(x.block).ReadBlock(dataset, x.block)
			if err != nil {
				p.replyErr2(seq, err)
				return
			}
			lastBlock, lastData = x.block, data
		}
		if int(x.off)+int(x.n) > len(lastData) {
			p.replyErr2(seq, fmt.Errorf("%w: extent [%d,+%d) outside block %d (%d bytes)",
				ErrProtocol, x.off, x.n, x.block, len(lastData)))
			return
		}
		parts = append(parts, lastData[x.off:int(x.off)+int(x.n)])
		total += int64(x.n)
	}
	p.s.mu.Lock()
	p.s.served += total
	p.s.mu.Unlock()
	p.reply2(msgOK2, seq, parts...)
}

func (p *connPipeline) replyErr2(seq uint32, err error) {
	p.s.mu.Lock()
	p.s.errored++
	p.s.mu.Unlock()
	p.reply2(msgError2, seq, []byte(err.Error()))
}

// reply2 writes one sequenced response frame as a single bounded gathered
// write: header+seq, then every part, via net.Buffers — no concatenation
// copy on the server side either.
func (p *connPipeline) reply2(msgType byte, seq uint32, parts ...[]byte) {
	total := 4
	for _, q := range parts {
		total += len(q)
	}
	var hdr [9]byte
	hdr[0] = msgType
	binary.BigEndian.PutUint32(hdr[1:5], uint32(total))
	binary.BigEndian.PutUint32(hdr[5:9], seq)
	bufs := make(net.Buffers, 0, len(parts)+1)
	bufs = append(bufs, hdr[:])
	for _, q := range parts {
		if len(q) > 0 {
			bufs = append(bufs, q)
		}
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.out.SetWriteDeadline(time.Now().Add(respWriteTimeout)) //nolint:errcheck
	bufs.WriteTo(p.out)                                      //nolint:errcheck // a dead conn fails the client's exchange; nothing to do server-side
}
