package visapult

import (
	"context"
	"errors"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// servedViewer is one in-process ServeViewer and its outcome.
type servedViewer struct {
	addr string
	rep  *ViewerReport
	err  error
	done chan struct{}
}

// startViewer runs ServeViewer on a loopback port and waits until it
// listens.
func startViewer(t *testing.T, cfg ViewerConfig) *servedViewer {
	t.Helper()
	sv := &servedViewer{done: make(chan struct{})}
	ready := make(chan string, 1)
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.OnListen = func(addr net.Addr) { ready <- addr.String() }
	go func() {
		defer close(sv.done)
		sv.rep, sv.err = ServeViewer(context.Background(), cfg)
	}()
	select {
	case sv.addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("viewer never started listening")
	}
	return sv
}

// wait returns the viewer's report once it has served every stream.
func (sv *servedViewer) wait(t *testing.T) *ViewerReport {
	t.Helper()
	select {
	case <-sv.done:
	case <-time.After(10 * time.Second):
		t.Fatal("viewer never finished")
	}
	if sv.err != nil {
		t.Fatalf("ServeViewer: %v", sv.err)
	}
	return sv.rep
}

// TestRunBackendSingleViewerMatchesTCPPipeline: one RunBackend over
// ViewerAddr feeds a ServeViewer, every frame is assembled, and the final
// view equals the in-process TransportTCP pipeline's.
func TestRunBackendSingleViewerMatchesTCPPipeline(t *testing.T) {
	const pes, steps = 2, 3
	sv := startViewer(t, ViewerConfig{PEs: pes})
	rep, err := RunBackend(context.Background(), BackendConfig{
		ViewerAddr: sv.addr,
		PEs:        pes,
		Timesteps:  steps,
		Source:     smallSource(steps),
	})
	if err != nil {
		t.Fatalf("RunBackend: %v", err)
	}
	if rep.Stats.Frames != steps {
		t.Errorf("back end processed %d frames, want %d", rep.Stats.Frames, steps)
	}
	if len(rep.Viewers) != 0 {
		t.Errorf("single-viewer run reported %d fan-out deliveries, want 0", len(rep.Viewers))
	}
	vrep := sv.wait(t)
	if vrep.Stats.FramesCompleted != steps || vrep.Stats.PayloadsReceived != pes*steps {
		t.Errorf("viewer stats %+v, want %d frames and %d payloads", vrep.Stats, steps, pes*steps)
	}

	p, err := New(WithSource(smallSource(steps)), WithPEs(pes), WithTransport(TransportTCP))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("TCP pipeline: %v", err)
	}
	if vrep.FinalImage == nil || res.FinalImage == nil {
		t.Fatalf("final images: split-process %v, pipeline %v", vrep.FinalImage != nil, res.FinalImage != nil)
	}
	if !slices.Equal(vrep.FinalImage.Pix, res.FinalImage.Pix) {
		t.Error("split-process final view differs from the TCP pipeline's")
	}
}

// TestRunBackendFollowViewSteersAxis: with FollowView the viewer's axis
// hints travel back over the link and flip the decomposition; without it
// they are drained and ignored.
func TestRunBackendFollowViewSteersAxis(t *testing.T) {
	const pes, steps = 2, 6
	for _, follow := range []bool{true, false} {
		// The back end starts on X; a viewer looking down Z asks for Z.
		sv := startViewer(t, ViewerConfig{PEs: pes})
		src := &slowTestSource{Source: smallSource(steps), delay: 10 * time.Millisecond}
		rep, err := RunBackend(context.Background(), BackendConfig{
			ViewerAddr: sv.addr,
			PEs:        pes,
			Timesteps:  steps,
			Source:     src,
			FollowView: follow,
		})
		if err != nil {
			t.Fatalf("RunBackend (follow %v): %v", follow, err)
		}
		sv.wait(t)
		if flipped := rep.Stats.AxisFlips > 0; flipped != follow {
			t.Errorf("follow %v: %d axis flips", follow, rep.Stats.AxisFlips)
		}
	}
}

// TestRunBackendCancelWithStalledViewer: a viewer that accepts its
// connections and never reads lets the PEs fill the socket buffers and block
// mid-write; cancelling ctx must still end RunBackend promptly and leave no
// goroutine behind.
func TestRunBackendCancelWithStalledViewer(t *testing.T) {
	const pes = 2
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		accepted []net.Conn
	)
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepted = append(accepted, c)
			mu.Unlock()
		}
	}()
	before := runtime.NumGoroutine()

	// 1 MiB textures (a 4-voxel-deep slab of 512x512) overrun loopback
	// buffers within a few frames.
	vol := NewVolume(4, 512, 512)
	steps := make([]*Volume, 64)
	for i := range steps {
		steps[i] = vol
	}
	src, err := NewMemorySource(steps...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(300*time.Millisecond, cancel)
	start := time.Now()
	_, err = RunBackend(ctx, BackendConfig{ViewerAddr: l.Addr().String(), PEs: pes, Source: src})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBackend returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled RunBackend took %v", elapsed)
	}
	checkNoGoroutineLeak(t, before)

	l.Close()
	<-acceptDone
	mu.Lock()
	defer mu.Unlock()
	if len(accepted) != pes {
		t.Errorf("viewer accepted %d connections, want %d", len(accepted), pes)
	}
	for _, c := range accepted {
		c.Close()
	}
}

// TestServeViewerCancel: cancelling ctx ends ServeViewer promptly with the
// context's error, both while it waits for the back end's connections and
// while it serves connections that never deliver a frame.
func TestServeViewerCancel(t *testing.T) {
	for _, dial := range []bool{false, true} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() {
			_, err := ServeViewer(ctx, ViewerConfig{
				ListenAddr: "127.0.0.1:0",
				PEs:        2,
				OnListen:   func(addr net.Addr) { ready <- addr.String() },
			})
			done <- err
		}()
		addr := <-ready
		var conns []net.Conn
		if dial {
			for range 2 {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				conns = append(conns, c)
			}
		}
		time.AfterFunc(100*time.Millisecond, cancel)
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("dialed %v: ServeViewer returned %v, want context.Canceled", dial, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("dialed %v: ServeViewer still running after cancel", dial)
		}
		for _, c := range conns {
			c.Close()
		}
		checkNoGoroutineLeak(t, before)
	}
}
