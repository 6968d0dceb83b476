package testutil

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// slowListener delays every Accept, so a viewer's accepts lose any race
// against a run of a few milliseconds.
type slowListener struct {
	net.Listener
	delay time.Duration
}

func (l *slowListener) Accept() (net.Conn, error) {
	time.Sleep(l.delay)
	return l.Listener.Accept()
}

var errAcceptRefused = errors.New("accept refused")

// refusingListener fails every Accept.
type refusingListener struct{ net.Listener }

func (l *refusingListener) Accept() (net.Conn, error) { return nil, errAcceptRefused }

// TestAttachAcceptsBeforeRunWithSlowAccept: with every Accept delayed far
// past the length of the run, each viewer attached before Run still
// assembles every frame. A harness that accepts in the background lets the
// run finish first and leaves the viewer with zero frames and no error.
func TestAttachAcceptsBeforeRunWithSlowAccept(t *testing.T) {
	const pes, steps = 2, 4
	h := NewHarness(t, HarnessConfig{PEs: pes, Timesteps: steps})
	h.listen = func() (net.Listener, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return &slowListener{Listener: l, delay: 100 * time.Millisecond}, nil
	}
	var hvs []*HarnessViewer
	for i := 0; i < 3; i++ {
		hvs = append(hvs, h.AttachViewer(fmt.Sprintf("slow-%d", i)))
	}
	if _, err := h.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, hv := range hvs {
		if got := hv.Stats().FramesCompleted; got != steps {
			t.Errorf("viewer %s assembled %d frames, want %d (serve error %v)", hv.ID, got, steps, hv.ServeErr())
		}
		if err := hv.ServeErr(); err != nil {
			t.Errorf("viewer %s serve error: %v", hv.ID, err)
		}
	}
}

// TestAttachFailsWhenAcceptFails: an Accept that fails is an attach error,
// not a viewer that silently serves nothing.
func TestAttachFailsWhenAcceptFails(t *testing.T) {
	h := NewHarness(t, HarnessConfig{})
	h.listen = func() (net.Listener, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return &refusingListener{Listener: l}, nil
	}
	hv, err := h.attachViewer("refused")
	if !errors.Is(err, errAcceptRefused) {
		t.Fatalf("attachViewer = %v, %v; want the accept error", hv, err)
	}
	if got := len(h.Deliveries()); got != 0 {
		t.Errorf("fan-out holds %d viewers after a failed attach, want 0", got)
	}
}
