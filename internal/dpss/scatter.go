package dpss

import (
	"context"
	"sync"
)

// ReadvScatter reads every extent into its destination slice in one vectored
// pass: extents are split at block boundaries, grouped per block server,
// batched into msgReadv exchanges and pipelined over each server's stripe
// pool. The server streams each batch back in a single bounded write and the
// client scatters the bytes straight from the socket into the caller's
// buffers — no per-block allocation.
//
// On error some destinations may hold partial data, but by the time the call
// returns no goroutine will write into any destination slice again, so
// callers may pool and reuse their buffers immediately.
func (f *File) ReadvScatter(ctx context.Context, exts []Extent) error {
	return f.client.readvScatter(ctx, f.info, exts)
}

// perServerPool recycles the per-call scatter plan (server address -> block
// extents) so steady-state vectored reads do not allocate per block.
var perServerPool = sync.Pool{
	New: func() any { return make(map[string][]blockExtent) },
}

func putPerServer(m map[string][]blockExtent) {
	for k, v := range m {
		for i := range v {
			v[i].dst = nil // drop references into caller buffers
		}
		m[k] = v[:0]
	}
	perServerPool.Put(m)
}

// dstsPool recycles the per-batch destination tables handed to the stripe
// layer.
var dstsPool = sync.Pool{
	New: func() any {
		s := make([][]byte, 0, 256)
		return &s
	},
}

// reqBufPool recycles msgReadv request encode buffers.
var reqBufPool = sync.Pool{
	New: func() any {
		s := make([]byte, 0, 1024)
		return &s
	},
}

func (c *Client) readvScatter(ctx context.Context, info DatasetInfo, exts []Extent) error {
	if len(exts) == 0 {
		return nil
	}
	per := perServerPool.Get().(map[string][]blockExtent)
	defer putPerServer(per)
	if err := splitExtents(info, exts, per); err != nil {
		return err
	}
	if len(per) == 1 {
		for addr, list := range per {
			return c.scatterServer(ctx, addr, info.Name, list)
		}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for addr, list := range per {
		if len(list) == 0 {
			continue
		}
		addr, list := addr, list
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.scatterServer(ctx, addr, info.Name, list); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// scatterServer serves one server's share of a vectored read: it batches
// the extent list under the protocol's extent-count and byte bounds, stripes
// the batches round-robin over the server's pool, pipelines them all, then
// waits for every response. Batches already in flight are always waited for
// — even after an error — so the no-writes-after-return guarantee holds.
func (c *Client) scatterServer(ctx context.Context, addr, name string, list []blockExtent) error {
	if len(list) == 0 {
		return nil
	}
	p, err := c.poolFor(addr)
	if err != nil {
		return err
	}
	type batch struct {
		call  *stripeCall
		dsts  *[][]byte
		bytes int64
		reads int64
	}
	reqBuf := reqBufPool.Get().(*[]byte)
	defer reqBufPool.Put(reqBuf)
	// Size batches so a region spreads over the whole stripe pool: one
	// maxReadvBytes batch would ride a single socket and leave the other
	// stripes idle, re-creating exactly the single-stream ceiling the
	// stripes exist to break. Aim for two batches per stripe (so each
	// socket also pipelines), bounded below so small reads do not shatter
	// into per-extent exchanges.
	total := 0
	for i := range list {
		total += int(list[i].n)
	}
	target := maxReadvBytes
	if n := len(p.stripes); n > 1 {
		const minBatch = 64 << 10
		t := total / (2 * n)
		if t < minBatch {
			t = minBatch
		}
		if t < target {
			target = t
		}
	}
	var (
		started  []batch
		firstErr error
	)
	for start := 0; start < len(list) && firstErr == nil; {
		end, size := start, 0
		for end < len(list) && end-start < MaxReadvExtents {
			if size+int(list[end].n) > target && end > start {
				break
			}
			size += int(list[end].n)
			end++
		}
		chunk := list[start:end]
		start = end

		dsts := dstsPool.Get().(*[][]byte)
		*dsts = (*dsts)[:0]
		for _, x := range chunk {
			*dsts = append(*dsts, x.dst)
		}
		*reqBuf = appendReadvRequest((*reqBuf)[:0], name, chunk)
		call, err := p.pick().start(ctx, *reqBuf, *dsts)
		if err != nil {
			*dsts = (*dsts)[:0]
			dstsPool.Put(dsts)
			firstErr = err
			break
		}
		started = append(started, batch{call: call, dsts: dsts, bytes: int64(size), reads: int64(len(chunk))})
	}

	var doneBytes, doneReads int64
	for _, b := range started {
		err := b.call.wait(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			doneBytes += b.bytes
			doneReads += b.reads
		}
		// The stripe layer guarantees nothing touches the destination table
		// once wait returns, so it can be recycled here.
		clear(*b.dsts)
		*b.dsts = (*b.dsts)[:0]
		dstsPool.Put(b.dsts)
	}
	if doneReads > 0 {
		c.mu.Lock()
		c.bytesRead += doneBytes
		c.reads += doneReads
		c.mu.Unlock()
	}
	return firstErr
}
