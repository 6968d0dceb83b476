package visapult

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// smallSource returns a synthetic source small enough for real sessions in
// tests.
func smallSource(steps int) Source {
	return NewCombustionSource(CombustionSpec{NX: 24, NY: 16, NZ: 16, Timesteps: steps, Seed: 42})
}

// checkNoGoroutineLeak fails the test if the goroutine count has not settled
// back to (close to) its starting value.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var after int
	for time.Now().Before(deadline) {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, after)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("expected error for missing source")
	}
	if _, err := New(WithSource(smallSource(1)), WithPEs(0)); err == nil {
		t.Error("expected error for zero PEs")
	}
	if _, err := New(WithSource(smallSource(1)), WithStripeLanes(-1)); err == nil {
		t.Error("expected error for negative stripe lanes")
	}
	if _, err := New(WithSource(smallSource(1)), WithTransport(Transport(99))); err == nil {
		t.Error("expected error for unknown transport")
	}
	if _, err := New(WithSource(smallSource(1)), WithoutViewer(), WithTransport(TransportTCP)); err == nil {
		t.Error("expected error for WithoutViewer over TCP")
	}
}

// TestRoundTripPerTransport drives a full pipeline through each transport
// and checks the frames arrive, the traffic contracts, and nothing leaks.
func TestRoundTripPerTransport(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"local", []Option{WithTransport(TransportLocal)}},
		{"tcp", []Option{WithTransport(TransportTCP)}},
		{"striped", []Option{WithTransport(TransportStriped), WithStripeLanes(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const pes, steps = 2, 3
			before := runtime.NumGoroutine()
			opts := append([]Option{
				WithSource(smallSource(steps)),
				WithPEs(pes),
				WithMode(Overlapped),
				WithInstrumentation(),
			}, tc.opts...)
			p, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Viewer.FramesCompleted != steps {
				t.Errorf("viewer completed %d frames, want %d", res.Viewer.FramesCompleted, steps)
			}
			if res.Backend.Frames != steps || res.Backend.PEs != pes {
				t.Errorf("backend stats %+v unexpected", res.Backend)
			}
			if res.TrafficRatio() <= 1 {
				t.Errorf("traffic ratio %.2f not > 1", res.TrafficRatio())
			}
			if len(res.Events) == 0 {
				t.Error("instrumented run produced no events")
			}
			checkNoGoroutineLeak(t, before)
		})
	}
}

// slowTestSource wraps a Source with a per-load delay so cancellation can
// land mid-run.
type slowTestSource struct {
	Source
	delay time.Duration
	loads atomic.Int64
}

func (s *slowTestSource) LoadRegion(ctx context.Context, t int, r Region) (*Volume, int64, error) {
	s.loads.Add(1)
	time.Sleep(s.delay)
	return s.Source.LoadRegion(ctx, t, r)
}

// TestRunCancellation cancels a pipeline mid-run and checks it unwinds with
// the context error and without leaking the overlapped readers.
func TestRunCancellation(t *testing.T) {
	for _, mode := range []Mode{Serial, Overlapped} {
		t.Run(mode.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			src := &slowTestSource{Source: smallSource(50), delay: 20 * time.Millisecond}
			p, err := New(
				WithSource(src),
				WithPEs(2),
				WithMode(mode),
				WithTransport(TransportTCP),
			)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(100 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err = p.Run(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run returned %v, want context.Canceled", err)
			}
			// 50 steps x 20 ms per load would take > 1 s per PE; cancellation
			// must cut that short.
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("cancelled run took %v", elapsed)
			}
			checkNoGoroutineLeak(t, before)
		})
	}
}

// TestRunDeadline exercises the context deadline path.
func TestRunDeadline(t *testing.T) {
	src := &slowTestSource{Source: smallSource(50), delay: 20 * time.Millisecond}
	p, err := New(WithSource(src), WithPEs(1), WithMode(Overlapped))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	if _, err := p.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want context.DeadlineExceeded", err)
	}
}

// TestWithoutViewer measures the backend-only path.
func TestWithoutViewer(t *testing.T) {
	p, err := New(WithSource(smallSource(2)), WithPEs(2), WithoutViewer())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend.Frames != 2 {
		t.Errorf("frames = %d, want 2", res.Backend.Frames)
	}
	if res.Viewer.FramesCompleted != 0 {
		t.Errorf("viewerless run reported viewer stats %+v", res.Viewer)
	}
}

// TestWithoutViewerHonoursInstrumentation: a viewer-less run goes through the
// same back-end assembly as any other, so WithInstrumentation still yields the
// back end's NetLogger events.
func TestWithoutViewerHonoursInstrumentation(t *testing.T) {
	p, err := New(WithSource(smallSource(2)), WithPEs(2), WithoutViewer(), WithInstrumentation())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Error("instrumented viewer-less run returned no events")
	}
	if res.FinalImage != nil {
		t.Error("viewer-less run returned a final image")
	}
}

// TestFrameHook checks the per-frame callback sees every (PE, timestep).
func TestFrameHook(t *testing.T) {
	var frames atomic.Int64
	p, err := New(
		WithSource(smallSource(3)),
		WithPEs(2),
		WithFrameHook(func(fm FrameMetric) { frames.Add(1) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := frames.Load(); got != 2*3 {
		t.Errorf("frame hook fired %d times, want 6", got)
	}
}

// TestFollowViewThroughFacade checks the axis-steering option survives the
// facade translation.
func TestFollowViewThroughFacade(t *testing.T) {
	p, err := New(
		WithSource(smallSource(4)),
		WithPEs(2),
		WithFollowView(),
		WithViewAngle(1.5707963), // ~90 degrees: best axis flips to X
		WithAxis(AxisZ),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend.AxisFlips == 0 {
		t.Error("expected the viewer's axis hint to flip the decomposition")
	}
}

// TestShapedViewerPath checks the bandwidth-shaping option delivers every
// payload.
func TestShapedViewerPath(t *testing.T) {
	p, err := New(
		WithSource(smallSource(2)),
		WithPEs(1),
		WithTransport(TransportTCP),
		WithViewerBandwidth(20e6),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Viewer.FramesCompleted != 2 {
		t.Errorf("viewer completed %d frames over the shaped path, want 2", res.Viewer.FramesCompleted)
	}
}

// TestPipelineReuse runs the same pipeline twice; sessions must be
// independent.
func TestPipelineReuse(t *testing.T) {
	p, err := New(WithSource(smallSource(2)), WithPEs(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Viewer.FramesCompleted != 2 {
			t.Fatalf("run %d completed %d frames", i, res.Viewer.FramesCompleted)
		}
	}
}
