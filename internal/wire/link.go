package wire

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// connectTimeout bounds ConnectLink's accepts. The dials have already landed
// in the listener's backlog, so the accepts wait on nothing outside the
// process; the bound only catches a listener that never hands them over.
const connectTimeout = 10 * time.Second

// Link is the back-end side of one viewer. The paper gives every back-end PE
// its own connection to the viewer — one TCP stream, or a striped bundle of
// them (section 3.4) — and the viewer sends its best-axis hints back on the
// same connections. A Link holds one logical Conn per PE, each with a reader
// draining that return channel. In-process sessions and their fan-out
// viewers, the split-process back end and viewer, and the test harness all
// build their viewer connections here.
type Link struct {
	conns []*Conn

	// live counts hint readers still running; the last one to stop closes
	// drained, which is how Finish learns the viewer has closed its side.
	live    atomic.Int32
	drained chan struct{}

	// wg joins the hint readers and end-of-stream senders; Finish adds to it
	// under mu, so no sender starts once Close is waiting.
	mu     sync.Mutex
	closed bool // guarded by mu
	wg     sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// DialLink dials one logical Conn per PE to the viewer at addr: a plain TCP
// connection when lanes is 0, a Stripe of that many sockets otherwise. wrap,
// when non-nil, wraps each plain TCP connection (a rate shaper, a test gate).
// Each Conn gets a reader that drains the viewer's return channel and hands
// every axis hint to onHint when onHint is non-nil; draining also keeps the
// receive buffers empty, so closing the link ends in a FIN, not a reset. On
// failure every connection opened so far is closed.
func DialLink(ctx context.Context, addr string, pes, lanes int, wrap func(net.Conn) net.Conn, onHint func(*AxisHint)) (*Link, error) {
	if pes <= 0 {
		return nil, fmt.Errorf("wire: link needs a positive PE count, got %d", pes)
	}
	l := &Link{conns: make([]*Conn, 0, pes), drained: make(chan struct{})}
	for pe := 0; pe < pes; pe++ {
		rw, err := dialPE(ctx, addr, lanes, wrap)
		if err != nil {
			for _, c := range l.conns {
				c.Close()
			}
			return nil, fmt.Errorf("wire: dialing PE %d to %s: %w", pe, addr, err)
		}
		l.conns = append(l.conns, NewConn(rw))
	}
	l.live.Store(int32(pes))
	for _, c := range l.conns {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			drainHints(c, onHint)
			if l.live.Add(-1) == 0 {
				close(l.drained)
			}
		}()
	}
	return l, nil
}

// dialPE opens one PE's logical connection. A PE stream is long-lived: the
// link's owner bounds it by closing the link, not by a deadline.
func dialPE(ctx context.Context, addr string, lanes int, wrap func(net.Conn) net.Conn) (io.ReadWriteCloser, error) {
	if lanes > 0 {
		return dialStriped(ctx, addr, lanes, 0)
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		return wrap(c), nil
	}
	return c, nil
}

// drainHints reads c's return channel until the viewer closes it.
func drainHints(c *Conn, onHint func(*AxisHint)) {
	for {
		m, err := c.ReadMessage()
		if err != nil {
			return
		}
		if m.Type != MsgAxisHint || onHint == nil {
			continue
		}
		if h, err := DecodeAxisHint(m); err == nil {
			onHint(h)
		}
	}
}

// AcceptConns is the viewer side of a link: it accepts n logical Conns on l
// (Stripes when lanes > 0, whatever their lane count) and closes l before it
// returns, so one listener serves one link. Cancelling ctx fails a pending
// accept. On failure every Conn accepted so far is closed.
func AcceptConns(ctx context.Context, l net.Listener, n, lanes int) ([]*Conn, error) {
	accept := func() (io.ReadWriteCloser, error) { return l.Accept() }
	stop := l.Close
	if lanes > 0 {
		sl := NewStripeListener(l, 0)
		accept = func() (io.ReadWriteCloser, error) { return sl.Accept() }
		stop = sl.Close
	}
	unwatch := context.AfterFunc(ctx, func() { stop() })
	defer unwatch()
	defer stop()

	conns := make([]*Conn, 0, n)
	for len(conns) < n {
		rw, err := accept()
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			if ctxErr := ctx.Err(); ctxErr != nil {
				err = ctxErr
			}
			return nil, fmt.Errorf("wire: accepting PE conn %d of %d: %w", len(conns), n, err)
		}
		conns = append(conns, NewConn(rw))
	}
	return conns, nil
}

// ConnectLink builds both sides of a link inside one process: it dials pes
// Conns to l, accepts them there (see AcceptConns: l is closed afterwards),
// and returns the back-end side together with the viewer side's Conns.
func ConnectLink(ctx context.Context, l net.Listener, pes, lanes int, wrap func(net.Conn) net.Conn, onHint func(*AxisHint)) (*Link, []*Conn, error) {
	link, err := DialLink(ctx, l.Addr().String(), pes, lanes, wrap, onHint)
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	actx, cancel := context.WithTimeout(ctx, connectTimeout)
	defer cancel()
	conns, err := AcceptConns(actx, l, pes, lanes)
	if err != nil {
		link.Close()
		return nil, nil, err
	}
	return link, conns, nil
}

// Conns returns the per-PE Conns in PE order.
func (l *Link) Conns() []*Conn { return l.conns }

// Finish ends the streams in order: it sends the end-of-stream marker on
// every Conn concurrently, then waits for the viewer to close its side (every
// hint reader at EOF). The whole wait is bounded by grace; grace <= 0 waits
// indefinitely. It returns the first send error, a timeout error when the
// grace ran out (a marker still blocked then is abandoned to Close, which
// fails its write), or net.ErrClosed when Close cut the wait short.
func (l *Link) Finish(grace time.Duration) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return net.ErrClosed
	}
	sent := make(chan error, len(l.conns))
	for _, c := range l.conns {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			sent <- c.SendDone()
		}()
	}
	l.mu.Unlock()

	var timeout <-chan time.Time
	if grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		timeout = t.C
	}
	var firstErr error
	for range l.conns {
		select {
		case err := <-sent:
			if err != nil && firstErr == nil {
				firstErr = err
			}
		case <-timeout:
			return fmt.Errorf("wire: end-of-stream not sent within %v", grace)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	select {
	case <-l.drained:
		// Close ends the readers too; that is not the viewer closing.
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.closed {
			return net.ErrClosed
		}
		return nil
	case <-timeout:
		return fmt.Errorf("wire: viewer did not close its streams within %v", grace)
	}
}

// Close closes every Conn, which fails any read or write still blocked on
// them, and joins the link's goroutines. It is idempotent and safe to call
// concurrently with Finish; every call returns the first close error.
func (l *Link) Close() error {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		for _, c := range l.conns {
			if err := c.Close(); err != nil && l.closeErr == nil {
				l.closeErr = err
			}
		}
		l.wg.Wait()
	})
	return l.closeErr
}
