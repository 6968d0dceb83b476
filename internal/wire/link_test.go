package wire

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"visapult/internal/volume"
)

// connectTestLink builds both sides of a link on a fresh loopback listener.
func connectTestLink(t *testing.T, pes, lanes int, onHint func(*AxisHint)) (*Link, []*Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	link, conns, err := ConnectLink(context.Background(), l, pes, lanes, nil, onHint)
	if err != nil {
		t.Fatalf("ConnectLink: %v", err)
	}
	return link, conns
}

// serveTestViewer plays the viewer on every conn: it reads one light/heavy
// pair, answers with an axis hint, reads the end-of-stream marker and closes.
func serveTestViewer(t *testing.T, conns []*Conn) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			for _, want := range []MessageType{MsgLight, MsgHeavy} {
				if m, err := c.ReadMessage(); err != nil || m.Type != want {
					t.Errorf("viewer read %v, %v; want %v", m.Type, err, want)
					return
				}
			}
			if err := c.SendAxisHint(&AxisHint{Frame: 0, Axis: volume.AxisY}); err != nil {
				t.Errorf("viewer hint: %v", err)
				return
			}
			if m, err := c.ReadMessage(); err != nil || m.Type != MsgDone {
				t.Errorf("viewer read %v, %v; want DONE", m.Type, err)
			}
		}()
	}
	return &wg
}

// A link carries payloads out and hints back on every PE's connection, plain
// or striped, and Finish returns once the viewer has read the end-of-stream
// marker and closed. Close then leaves no goroutine behind.
func TestLinkRoundTripAndFinish(t *testing.T) {
	for _, lanes := range []int{0, 3} {
		const pes = 3
		before := runtime.NumGoroutine()
		var mu sync.Mutex
		hints := 0
		link, viewerConns := connectTestLink(t, pes, lanes, func(h *AxisHint) {
			if h.Axis == volume.AxisY {
				mu.Lock()
				hints++
				mu.Unlock()
			}
		})
		if len(link.Conns()) != pes || len(viewerConns) != pes {
			t.Fatalf("lanes %d: %d link conns, %d viewer conns; want %d", lanes, len(link.Conns()), len(viewerConns), pes)
		}
		served := serveTestViewer(t, viewerConns)
		for _, c := range link.Conns() {
			if err := c.SendLight(sampleLight()); err != nil {
				t.Fatal(err)
			}
			if err := c.SendHeavy(sampleHeavy(8, 8)); err != nil {
				t.Fatal(err)
			}
		}
		if err := link.Finish(5 * time.Second); err != nil {
			t.Fatalf("lanes %d: Finish: %v", lanes, err)
		}
		served.Wait()
		if err := link.Close(); err != nil && lanes == 0 {
			t.Errorf("Close: %v", err)
		}
		link.Close() // idempotent
		mu.Lock()
		if hints != pes {
			t.Errorf("lanes %d: onHint saw %d hints, want %d", lanes, hints, pes)
		}
		mu.Unlock()
		settleGoroutines(t, before)
	}
}

// Finish is bounded: a viewer that never closes its side costs the grace,
// not a hang, and Close still unwinds everything.
func TestLinkFinishBoundedBySilentViewer(t *testing.T) {
	before := runtime.NumGoroutine()
	link, viewerConns := connectTestLink(t, 2, 0, nil)
	start := time.Now()
	if err := link.Finish(100 * time.Millisecond); err == nil {
		t.Fatal("Finish against a viewer that never closes returned nil")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Finish took %v with a 100ms grace", elapsed)
	}
	// An unbounded Finish ends when Close, from another goroutine, gives up.
	finished := make(chan error, 1)
	go func() { finished <- link.Finish(0) }()
	time.Sleep(20 * time.Millisecond)
	link.Close()
	select {
	case err := <-finished:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("Finish cut short by Close = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Finish still waiting after Close")
	}
	if err := link.Finish(time.Second); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Finish after Close = %v, want net.ErrClosed", err)
	}
	for _, c := range viewerConns {
		c.Close()
	}
	settleGoroutines(t, before)
}

// Cancelling ctx fails a pending accept with the context's error and closes
// the listener.
func TestAcceptConnsCancel(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	if _, err := AcceptConns(ctx, l, 2, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("AcceptConns = %v, want context.Canceled", err)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("listener still open after AcceptConns: %v", err)
	}
}

// A dial that fails part-way closes the connections it already opened.
func TestDialLinkFailureClosesOpenedConns(t *testing.T) {
	if _, err := DialLink(context.Background(), "127.0.0.1:1", 0, 0, nil, nil); err == nil {
		t.Error("DialLink with no PEs succeeded")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	wrap := func(c net.Conn) net.Conn {
		// The first PE dials fine; closing the listener then refuses the
		// second, and the first must be closed by DialLink.
		l.Close()
		return &closeTracker{Conn: c, closed: closed}
	}
	if _, err := DialLink(context.Background(), l.Addr().String(), 2, 0, wrap, nil); err == nil {
		t.Fatal("DialLink to a closed listener succeeded")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the first PE's connection was left open")
	}
}

type closeTracker struct {
	net.Conn
	closed chan struct{}
	once   sync.Once
}

func (c *closeTracker) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
