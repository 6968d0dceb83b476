package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"visapult/internal/backend"
	"visapult/internal/viewer"
)

// ViewerResult reports one viewer of a fan-out session: its receive-side
// counters and the sender-side delivery record the fan-out kept for it.
type ViewerResult struct {
	ID       string
	Stats    viewer.Stats
	Delivery backend.ViewerDelivery
	// Err is the viewer's terminal error — its serve error, else its
	// end-of-stream or close error — empty for clean streams.
	Err string
}

// FanoutControl is the live handle of a fan-out session: attach and detach
// viewers while the run executes, and read per-viewer delivery metrics. All
// methods are safe for concurrent use; the handle stays readable (Viewers)
// after the session ends, while Attach and Detach then fail.
type FanoutControl struct {
	cfg SessionConfig
	ctx context.Context
	fan *backend.Fanout

	mu     sync.Mutex
	ends   map[string]*viewerEnd // attached ends by id; nil while Attach builds one
	order  []*viewerEnd          // every end ever attached, in attach order
	closed bool
}

var errFanoutEnded = errors.New("core: fan-out session has ended, cannot attach")

// Active reports whether the fan-out still accepts viewer operations (the
// session has not begun tearing down). A retention sweep uses it to tell a
// finished session's historical viewer records from live attachments.
func (fc *FanoutControl) Active() bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return !fc.closed
}

// Attach builds a new in-process viewer (with the session's transport,
// dimensions and camera), wires it into the fan-out, and starts serving it.
// A viewer attached while the run is in flight starts receiving at the next
// frame boundary.
func (fc *FanoutControl) Attach(id string) error {
	fc.mu.Lock()
	if fc.closed {
		fc.mu.Unlock()
		return errFanoutEnded
	}
	if _, ok := fc.ends[id]; ok {
		fc.mu.Unlock()
		return fmt.Errorf("core: viewer %q is already attached", id)
	}
	// Reserve the id (nil entry) before dropping the lock to build the
	// viewer: a concurrent Attach with the same id must fail here, not
	// overwrite the registration below.
	fc.ends[id] = nil
	fc.mu.Unlock()

	e, err := newInProcessEnd(fc.ctx, fc.cfg, id, false, nil)
	if err != nil {
		fc.mu.Lock()
		delete(fc.ends, id)
		fc.mu.Unlock()
		return err
	}
	return fc.add(e)
}

// add registers a built end and wires it into the fan-out; on failure it
// tears the end down.
func (fc *FanoutControl) add(e *viewerEnd) error {
	fc.mu.Lock()
	if fc.closed {
		delete(fc.ends, e.id)
		fc.mu.Unlock()
		e.teardown(time.Time{})
		return errFanoutEnded
	}
	fc.ends[e.id] = e
	fc.order = append(fc.order, e)
	fc.mu.Unlock()

	if err := fc.fan.Attach(e.id, e.sinks); err != nil {
		fc.mu.Lock()
		delete(fc.ends, e.id)
		fc.order = slices.DeleteFunc(fc.order, func(o *viewerEnd) bool { return o == e })
		fc.mu.Unlock()
		e.teardown(time.Time{})
		return err
	}
	return nil
}

// Detach removes a viewer from the fan-out mid-run and tears its transport
// down. Its delivery record (and receive-side statistics) remain available in
// the session result and in Viewers snapshots.
func (fc *FanoutControl) Detach(id string) error {
	fc.mu.Lock()
	e := fc.ends[id]
	if e == nil { // nil: unknown, or a concurrent Attach is still building it
		fc.mu.Unlock()
		return fmt.Errorf("core: viewer %q is not attached", id)
	}
	delete(fc.ends, id)
	fc.mu.Unlock()
	deadline := time.Now().Add(teardownGrace)
	// The sender may already be gone (failed sink); the end still needs
	// tearing down.
	_ = fc.fan.Detach(id)
	e.teardown(deadline)
	return nil
}

// Viewers returns a snapshot of every viewer's delivery counters, in attach
// order, including viewers that already detached or failed.
func (fc *FanoutControl) Viewers() []backend.ViewerDelivery {
	return fc.fan.Viewers()
}

// snapshot returns every end ever attached, in attach order.
func (fc *FanoutControl) snapshot() []*viewerEnd {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return slices.Clone(fc.order)
}

// close marks the control finished: subsequent Attach/Detach calls fail.
func (fc *FanoutControl) close() {
	fc.mu.Lock()
	fc.closed = true
	fc.mu.Unlock()
}

// abort unwinds every end without collecting results (setup failure path).
// Closing the fan first ends the already-started senders: their queues are
// empty at setup time, so the short grace is never consumed by a healthy
// sender.
func (fc *FanoutControl) abort() {
	fc.close()
	fc.fan.Close(time.Second)
	for _, e := range fc.snapshot() {
		e.teardown(time.Time{})
	}
}

// finish closes the control, tears every end down by deadline, and returns
// the per-viewer results in attach order.
func (fc *FanoutControl) finish(deadline time.Time) []ViewerResult {
	fc.close()
	ends := fc.snapshot()
	var wg sync.WaitGroup
	for _, e := range ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.teardown(deadline)
		}()
	}
	wg.Wait()

	// Snapshot the delivery counters only after the teardown: a sender that
	// was wedged on a stalled connection settles its final sent/dropped tally
	// when the teardown closes that connection. An id reused after a detach
	// appears more than once in the snapshot, so pair each end with the first
	// unconsumed record carrying its id.
	deliveries := fc.fan.Viewers()
	used := make([]bool, len(deliveries))
	deliveryFor := func(id string) backend.ViewerDelivery {
		for i, d := range deliveries {
			if !used[i] && d.ID == id {
				used[i] = true
				return d
			}
		}
		return backend.ViewerDelivery{ID: id}
	}
	results := make([]ViewerResult, 0, len(ends))
	for _, e := range ends {
		results = append(results, e.result(deliveryFor(e.id)))
	}
	return results
}
