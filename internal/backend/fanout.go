package backend

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"visapult/internal/wire"
)

// Fanout is the viewer multicast stage of the back end: one run renders each
// frame once and the fanout ships the per-slab textures to every attached
// viewer. It reproduces the paper's marquee exhibit — a single Visapult back
// end feeding both an ImmersaDesk and a tiled display at once — generalized
// to N viewers that may attach and detach while the run executes.
//
// Each attached viewer owns a bounded send queue drained by a dedicated
// sender goroutine, so the render loop never blocks on a slow or dead viewer:
// Publish is non-blocking, and a viewer whose queue is full loses frames (the
// per-viewer drop counter records how many) instead of stalling the PEs —
// the same decoupling the paper applies between the viewer's render thread
// and network arrival, applied in the other direction.
//
// A viewer that attaches mid-run starts receiving at the next frame boundary:
// frames older than the highest frame the back end has begun publishing are
// never queued for it, so every viewer observes a clean suffix of the frame
// sequence rather than a torn frame with some slabs missing.
type Fanout struct {
	pes   int
	queue int

	mu      sync.Mutex
	viewers map[string]*fanViewer // guarded by mu
	// history retains detached viewers whose id was reused by a later
	// Attach (keyed out of the live map), so no attachment's record ever
	// vanishes from Viewers snapshots. Live pointers, not eager snapshots:
	// a retired sender still draining (a wedged Detach that timed out)
	// keeps updating its counters, and the snapshot must see the final
	// tally.
	// guarded by mu
	history []*fanViewer
	order   int // guarded by mu
	// maxFrame is the highest frame number any PE has published so far; -1
	// until the first publish. Late attaches start at maxFrame+1.
	// guarded by mu
	maxFrame int
	closed   bool // guarded by mu
	// framed is set once any attached viewer has a sink that takes
	// pre-framed heavy payloads; publish then frames each slab once (outside
	// mu: the CRC walks the whole texture).
	framed atomic.Bool
}

// DefaultViewerQueue bounds a viewer's send queue when no bound is given:
// enough to absorb transient jitter for several frames of a multi-PE run
// without letting a dead viewer pin unbounded texture memory.
const DefaultViewerQueue = 32

// ViewerDelivery is a snapshot of one attached viewer's delivery counters.
type ViewerDelivery struct {
	// ID names the viewer (unique among currently attached viewers).
	ID string
	// Attached is when the viewer joined the fan-out.
	Attached time.Time
	// StartFrame is the first frame the viewer was eligible to receive
	// (non-zero for viewers that attached mid-run).
	StartFrame int
	// FramesSent counts (PE, frame) texture pairs actually delivered.
	FramesSent int
	// FramesDropped counts pairs lost to a full queue or a failed sink.
	FramesDropped int
	// QueueDepth is the number of pairs waiting in the send queue.
	QueueDepth int
	// BytesSent is the payload volume delivered to this viewer.
	BytesSent int64
	// Detached is true once the viewer left the fan-out (explicitly, or
	// because its sink failed).
	Detached bool
	// Error is why the viewer's sender stopped, empty for healthy or
	// explicitly detached viewers.
	Error string
}

// fanViewer is the fan-out's record of one attached viewer.
type fanViewer struct {
	id    string
	seq   int
	sinks []FrameSink
	ch    chan fanItem
	stop  chan struct{} // closed by Detach to halt the sender immediately
	done  chan struct{} // closed by the sender on exit

	attached   time.Time
	startFrame int

	// The counters below are guarded by the owning Fanout's mu.
	sent     int
	dropped  int
	bytes    int64
	detached bool
	err      error
}

// fanItem is one queued (PE, frame) texture pair. Every viewer's queue holds
// the same payload pointers: the pair is published once and is immutable from
// then on (see renderAndSend), so N senders read one texture concurrently.
type fanItem struct {
	pe    int
	light *wire.LightPayload
	heavy *wire.HeavyPayload
	// frame is heavy framed for the wire — header, CRC and texture
	// reference — built once at publish and shared by every viewer's sender;
	// nil when no attached viewer takes frames (in-process sinks) or the
	// payload is malformed, in which case SendHeavy reports it per viewer.
	frame *wire.HeavyFrame
}

// framedSink is a FrameSink that can send a heavy payload framed in advance;
// *wire.Conn is the one that matters.
type framedSink interface {
	SendHeavyFrame(*wire.HeavyFrame) error
}

// sink returns the FrameSink PE rank's payloads go to for this viewer.
func (v *fanViewer) sink(rank int) FrameSink {
	if len(v.sinks) == 1 {
		return v.sinks[0]
	}
	return v.sinks[rank]
}

// NewFanout builds a fan-out stage for a back end with the given PE count.
// queue bounds each viewer's send queue in (PE, frame) pairs; <= 0 selects
// DefaultViewerQueue.
func NewFanout(pes, queue int) (*Fanout, error) {
	if pes <= 0 {
		return nil, fmt.Errorf("backend: fanout PEs must be positive, got %d", pes)
	}
	if queue <= 0 {
		queue = DefaultViewerQueue
	}
	return &Fanout{pes: pes, queue: queue, viewers: make(map[string]*fanViewer), maxFrame: -1}, nil
}

// PEs returns the PE count the fan-out was built for.
func (f *Fanout) PEs() int { return f.pes }

// Sinks returns the per-PE FrameSinks the back end writes into — pass them
// as Config.Sinks. Each sink pairs a PE's light payload with the heavy
// payload that follows it and publishes the pair to every attached viewer.
func (f *Fanout) Sinks() []FrameSink {
	sinks := make([]FrameSink, f.pes)
	for i := range sinks {
		sinks[i] = &fanoutPESink{f: f, rank: i}
	}
	return sinks
}

// Attach registers a viewer under id with one FrameSink per PE (or a single
// sink shared by all PEs) and starts its sender goroutine. A viewer attached
// while the run is in flight receives frames from the next frame boundary on.
func (f *Fanout) Attach(id string, sinks []FrameSink) error {
	if id == "" {
		return errors.New("backend: fanout viewer id must not be empty")
	}
	switch len(sinks) {
	case 1, f.pes:
	default:
		return fmt.Errorf("backend: viewer %q: got %d sinks, want 1 or %d", id, len(sinks), f.pes)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("backend: fanout is closed, cannot attach viewer %q", id)
	}
	if old, ok := f.viewers[id]; ok {
		if !old.detached {
			return fmt.Errorf("backend: viewer %q is already attached", id)
		}
		// The id is being reused; retire the detached attachment instead of
		// silently discarding its record.
		f.history = append(f.history, old)
	}
	v := &fanViewer{
		id:         id,
		seq:        f.order,
		sinks:      sinks,
		ch:         make(chan fanItem, f.queue),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		attached:   time.Now(),
		startFrame: f.maxFrame + 1,
	}
	f.order++
	f.viewers[id] = v
	for _, sink := range sinks {
		if _, ok := sink.(framedSink); ok {
			f.framed.Store(true)
		}
	}
	go f.sendLoop(v)
	return nil
}

// detachGrace bounds how long Detach waits for the viewer's sender to stop.
// A sender wedged in a blocking sink write cannot observe the stop signal
// until its connection is torn down — which the caller does after Detach —
// so Detach must not wait on it unboundedly.
const detachGrace = 2 * time.Second

// Detach removes a viewer from the fan-out, stopping its sender. Frames still
// queued are discarded (counted as drops). The viewer stops receiving
// immediately; the sender itself is waited for up to a bounded grace — one
// wedged in a blocking sink write exits once the caller tears that sink's
// connection down. Detaching an unknown or already detached viewer is an
// error so control planes can surface typos.
func (f *Fanout) Detach(id string) error {
	f.mu.Lock()
	v, ok := f.viewers[id]
	if !ok || v.detached {
		f.mu.Unlock()
		return fmt.Errorf("backend: viewer %q is not attached", id)
	}
	v.detached = true
	close(v.stop)
	f.mu.Unlock()
	select {
	case <-v.done:
	case <-time.After(detachGrace):
	}
	return nil
}

// publish fans one (PE, frame) pair out to every eligible viewer without
// blocking: a full queue drops the pair for that viewer only. It never
// returns an error — viewer failures are per-viewer state, invisible to the
// render loop.
func (f *Fanout) publish(pe int, lp *wire.LightPayload, hp *wire.HeavyPayload) {
	item := fanItem{pe: pe, light: lp, heavy: hp}
	if f.framed.Load() {
		item.frame, _ = wire.FrameHeavy(hp)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	if lp.Frame > f.maxFrame {
		f.maxFrame = lp.Frame
	}
	for _, v := range f.viewers {
		if v.detached || lp.Frame < v.startFrame {
			continue
		}
		select {
		case v.ch <- item:
		default:
			v.dropped++
		}
	}
}

// sendLoop is one viewer's sender goroutine: it drains the queue into the
// viewer's sinks until the queue is closed (orderly end of run), the viewer
// is detached, or a sink fails.
func (f *Fanout) sendLoop(v *fanViewer) {
	defer close(v.done)
	// Whatever is still queued when the sender stops early (detach, sink
	// failure) was never delivered; count it as dropped. Publishing to this
	// viewer has stopped by then (detached is set under f.mu before stop is
	// closed), so the drain is exact.
	defer func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		for {
			select {
			case _, ok := <-v.ch:
				if !ok {
					return
				}
				v.dropped++
			default:
				return
			}
		}
	}()
	for {
		select {
		case <-v.stop:
			return
		case item, ok := <-v.ch:
			if !ok {
				return
			}
			if err := f.sendItem(v, item); err != nil {
				// The pair in flight was never delivered either.
				f.mu.Lock()
				v.dropped++
				f.mu.Unlock()
				f.fail(v, err)
				return
			}
		}
	}
}

// sendItem ships one pair to the viewer's sink for the item's PE.
func (f *Fanout) sendItem(v *fanViewer, item fanItem) error {
	sink := v.sink(item.pe)
	if err := sink.SendLight(item.light); err != nil {
		return fmt.Errorf("backend: viewer %q PE %d frame %d light: %w", v.id, item.pe, item.light.Frame, err)
	}
	var err error
	if fs, ok := sink.(framedSink); ok && item.frame != nil {
		err = fs.SendHeavyFrame(item.frame)
	} else {
		err = sink.SendHeavy(item.heavy)
	}
	if err != nil {
		return fmt.Errorf("backend: viewer %q PE %d frame %d heavy: %w", v.id, item.pe, item.heavy.Frame, err)
	}
	f.mu.Lock()
	v.sent++
	v.bytes += item.light.WireSize() + item.heavy.WireSize()
	f.mu.Unlock()
	return nil
}

// fail marks a viewer's sender dead: the viewer is detached so the render
// loop stops queueing for it, and anything still queued counts as dropped.
func (f *Fanout) fail(v *fanViewer, err error) {
	f.mu.Lock()
	if !v.detached {
		v.detached = true
		v.err = err
	}
	f.mu.Unlock()
}

// Close ends the fan-out: no further publishes or attaches are accepted, the
// queues already accumulated are flushed to their viewers, and Close waits up
// to grace for the senders to drain (grace <= 0 waits indefinitely). A sender
// wedged on a stalled sink past the grace is abandoned — tearing down the
// sink (closing its connection) is what unblocks and ends it. Close reports
// whether every sender finished in time.
func (f *Fanout) Close(grace time.Duration) bool {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		for _, v := range f.viewers {
			if !v.detached {
				// Safe: publish never sends once closed is set, and both run
				// under f.mu.
				close(v.ch)
			}
		}
	}
	viewers := make([]*fanViewer, 0, len(f.viewers))
	for _, v := range f.viewers {
		viewers = append(viewers, v)
	}
	f.mu.Unlock()

	// One absolute deadline shared by all waits: a one-shot timer channel
	// would be consumed by the first overdue sender and leave later waits
	// blocking forever.
	var deadline time.Time
	if grace > 0 {
		deadline = time.Now().Add(grace)
	}
	all := true
	for _, v := range viewers {
		if grace <= 0 {
			<-v.done
			continue
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			select {
			case <-v.done:
			default:
				all = false
			}
			continue
		}
		t := time.NewTimer(remaining)
		select {
		case <-v.done:
			t.Stop()
		case <-t.C:
			all = false
		}
	}
	return all
}

// deliveryLocked snapshots one viewer's counters with f.mu held.
func (f *Fanout) deliveryLocked(v *fanViewer) ViewerDelivery {
	d := ViewerDelivery{
		ID:            v.id,
		Attached:      v.attached,
		StartFrame:    v.startFrame,
		FramesSent:    v.sent,
		FramesDropped: v.dropped,
		QueueDepth:    len(v.ch),
		BytesSent:     v.bytes,
		Detached:      v.detached,
	}
	if v.err != nil {
		d.Error = v.err.Error()
	}
	return d
}

// Viewers returns a snapshot of every attachment's delivery counters, in
// attach order. Detached and failed viewers stay in the snapshot — including
// earlier attachments of a since-reused id — so a control plane can report
// what happened to them.
func (f *Fanout) Viewers() []ViewerDelivery {
	f.mu.Lock()
	defer f.mu.Unlock()
	all := make([]*fanViewer, 0, len(f.history)+len(f.viewers))
	all = append(all, f.history...)
	for _, v := range f.viewers {
		all = append(all, v)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]ViewerDelivery, len(all))
	for i, v := range all {
		out[i] = f.deliveryLocked(v)
	}
	return out
}

// fanoutPESink is the FrameSink one PE writes into: it pairs the PE's light
// payload with the heavy payload that follows (the back end's send-order
// invariant) and publishes the pair. Each PE goroutine owns its sink, so the
// pending field needs no lock.
type fanoutPESink struct {
	f       *Fanout
	rank    int
	pending *wire.LightPayload
}

// SendLight implements FrameSink.
func (s *fanoutPESink) SendLight(lp *wire.LightPayload) error {
	if lp == nil {
		return errors.New("backend: fanout: nil light payload")
	}
	if s.pending != nil {
		return fmt.Errorf("backend: fanout: PE %d sent light payload for frame %d before heavy payload for frame %d",
			s.rank, lp.Frame, s.pending.Frame)
	}
	s.pending = lp
	return nil
}

// SendHeavy implements FrameSink.
func (s *fanoutPESink) SendHeavy(hp *wire.HeavyPayload) error {
	if hp == nil {
		return errors.New("backend: fanout: nil heavy payload")
	}
	if s.pending == nil {
		return fmt.Errorf("backend: fanout: PE %d sent heavy payload for frame %d with no preceding metadata", s.rank, hp.Frame)
	}
	lp := s.pending
	s.pending = nil
	s.f.publish(s.rank, lp, hp)
	return nil
}
