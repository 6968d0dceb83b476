package viewer

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"visapult/internal/backend"
	"visapult/internal/netlogger"
	"visapult/internal/render"
	"visapult/internal/volume"
	"visapult/internal/wire"
)

// makePayloads builds a matched light/heavy pair for one PE and frame.
func makePayloads(frame, pe, pes int) (*wire.LightPayload, *wire.HeavyPayload) {
	const w, h = 8, 6
	img := render.NewImage(w, h)
	img.Fill(0.5, 0.2, 0.1, 0.8)
	hp := &wire.HeavyPayload{
		Frame: frame, PE: pe, TexWidth: w, TexHeight: h, Texture: img.ToRGBA8(),
	}
	lp := &wire.LightPayload{
		Frame: frame, PE: pe, SlabIndex: pe, SlabCount: pes,
		Axis: volume.AxisZ, TexWidth: w, TexHeight: h, BytesPerPixel: 4,
		CenterX: float64(w) / 2, CenterY: float64(h) / 2, CenterZ: float64(pe) + 0.5,
		Width: w, Height: h, Depth: 1,
		HeavyBytes: hp.WireSize(),
	}
	return lp, hp
}

func newTestViewer(t *testing.T, pes int, opts ...func(*Config)) *Viewer {
	t.Helper()
	cfg := Config{PEs: pes, ViewWidth: 32, ViewHeight: 32}
	for _, o := range opts {
		o(&cfg)
	}
	v, err := New(cfg)
	if err != nil {
		t.Fatalf("new viewer: %v", err)
	}
	return v
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error for zero PEs")
	}
	v, err := New(Config{PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.cfg.ViewWidth != 512 || v.cfg.ViewHeight != 512 {
		t.Fatalf("defaults not applied: %dx%d", v.cfg.ViewWidth, v.cfg.ViewHeight)
	}
}

func TestDeliverUpdatesSceneAndStats(t *testing.T) {
	const pes = 3
	v := newTestViewer(t, pes)
	for pe := 0; pe < pes; pe++ {
		lp, hp := makePayloads(0, pe, pes)
		if err := v.Deliver(lp, hp); err != nil {
			t.Fatalf("deliver PE %d: %v", pe, err)
		}
	}
	st := v.Stats()
	if st.PayloadsReceived != pes {
		t.Fatalf("payloads = %d, want %d", st.PayloadsReceived, pes)
	}
	if st.FramesCompleted != 1 {
		t.Fatalf("frames completed = %d, want 1", st.FramesCompleted)
	}
	if st.BytesReceived == 0 {
		t.Fatal("bytes received is zero")
	}
	quads := v.Scene().TextureQuads()
	if len(quads) != pes {
		t.Fatalf("scene has %d quads, want %d", len(quads), pes)
	}
	// Quads must come back depth-sorted far-to-near (decreasing CenterZ).
	for i := 1; i < len(quads); i++ {
		if quads[i-1].Depth < quads[i].Depth {
			t.Fatal("texture quads not depth sorted")
		}
	}
	recs := v.Frames()
	if len(recs) != 1 || recs[0].PEsArrived != pes || recs[0].Completed.IsZero() {
		t.Fatalf("frame record %+v unexpected", recs)
	}
}

func TestDeliverReplacesQuadPerPE(t *testing.T) {
	v := newTestViewer(t, 1)
	for frame := 0; frame < 5; frame++ {
		lp, hp := makePayloads(frame, 0, 1)
		if err := v.Deliver(lp, hp); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(v.Scene().TextureQuads()); got != 1 {
		t.Fatalf("scene has %d quads, want 1 (latest frame replaces earlier)", got)
	}
	if v.Scene().TextureQuads()[0].Frame != 4 {
		t.Fatalf("surviving quad is frame %d, want 4", v.Scene().TextureQuads()[0].Frame)
	}
	if st := v.Stats(); st.FramesCompleted != 5 {
		t.Fatalf("frames completed = %d, want 5", st.FramesCompleted)
	}
}

func TestDeliverRejectsMismatchedPayloads(t *testing.T) {
	v := newTestViewer(t, 1)
	lp, _ := makePayloads(0, 0, 1)
	_, hp := makePayloads(1, 0, 1)
	if err := v.Deliver(lp, hp); err == nil {
		t.Fatal("expected error for mismatched frame numbers")
	}
	if err := v.Deliver(nil, hp); err == nil {
		t.Fatal("expected error for nil light payload")
	}
	lp2, hp2 := makePayloads(0, 0, 1)
	hp2.Texture = hp2.Texture[:8] // corrupt
	if err := v.Deliver(lp2, hp2); err == nil {
		t.Fatal("expected error for malformed texture")
	}
}

func TestAxisHintFiresOnFrameCompletion(t *testing.T) {
	var mu sync.Mutex
	var hints []volume.Axis
	v := newTestViewer(t, 2, func(c *Config) {
		c.AxisHint = func(frame int, axis volume.Axis) {
			mu.Lock()
			hints = append(hints, axis)
			mu.Unlock()
		}
	})
	// Rotate the camera far around Y: the best axis should become X.
	v.SetViewAngle(math.Pi / 2)
	for pe := 0; pe < 2; pe++ {
		lp, hp := makePayloads(0, pe, 2)
		if err := v.Deliver(lp, hp); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hints) != 1 {
		t.Fatalf("got %d hints, want 1 (only on completion)", len(hints))
	}
	if hints[0] != volume.AxisX {
		t.Fatalf("hint = %v, want X for a 90-degree Y rotation", hints[0])
	}
}

func TestBestAxisFollowsViewAngle(t *testing.T) {
	v := newTestViewer(t, 1)
	v.SetViewAngle(0)
	if v.BestAxis() != volume.AxisZ {
		t.Fatalf("axis at 0 rad = %v, want Z", v.BestAxis())
	}
	v.SetViewAngle(math.Pi / 2)
	if v.BestAxis() != volume.AxisX {
		t.Fatalf("axis at pi/2 = %v, want X", v.BestAxis())
	}
}

func TestRenderLoopDecoupledFromUpdates(t *testing.T) {
	v := newTestViewer(t, 1)
	v.StartRenderLoop(time.Millisecond)
	defer v.Stop()
	// Render loop should produce an image even before any data arrives.
	deadline := time.Now().Add(5 * time.Second)
	for v.LastImage() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if v.LastImage() == nil {
		t.Fatal("render loop produced no image")
	}
	// Deliver data and check that a new render eventually picks it up.
	lp, hp := makePayloads(0, 0, 1)
	if err := v.Deliver(lp, hp); err != nil {
		t.Fatal(err)
	}
	before := v.Stats().RenderedFrames
	deadline = time.Now().Add(5 * time.Second)
	for v.Stats().RenderedFrames == before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if v.Stats().RenderedFrames == before {
		t.Fatal("render loop did not react to a scene update")
	}
}

func TestRenderOnceCompositesTextures(t *testing.T) {
	v := newTestViewer(t, 2)
	for pe := 0; pe < 2; pe++ {
		lp, hp := makePayloads(0, pe, 2)
		if err := v.Deliver(lp, hp); err != nil {
			t.Fatal(err)
		}
	}
	img, err := v.CompositeView()
	if err != nil {
		t.Fatal(err)
	}
	if img.MeanAlpha() == 0 {
		t.Fatal("composited view is fully transparent")
	}
	if _, err := newTestViewer(t, 1).CompositeView(); err == nil {
		t.Fatal("expected error for empty scene")
	}
}

func TestLocalSinkPairsPayloads(t *testing.T) {
	v := newTestViewer(t, 2)
	sink := NewLocalSink(v)
	lp0, hp0 := makePayloads(0, 0, 2)
	lp1, hp1 := makePayloads(0, 1, 2)
	// Interleave two PEs to prove pairing is per-PE, not global.
	if err := sink.SendLight(lp0); err != nil {
		t.Fatal(err)
	}
	if err := sink.SendLight(lp1); err != nil {
		t.Fatal(err)
	}
	if err := sink.SendHeavy(hp1); err != nil {
		t.Fatal(err)
	}
	if err := sink.SendHeavy(hp0); err != nil {
		t.Fatal(err)
	}
	if v.Stats().FramesCompleted != 1 {
		t.Fatalf("frames completed = %d, want 1", v.Stats().FramesCompleted)
	}
}

func TestLocalSinkProtocolViolations(t *testing.T) {
	v := newTestViewer(t, 1)
	sink := NewLocalSink(v)
	_, hp := makePayloads(0, 0, 1)
	if err := sink.SendHeavy(hp); err == nil {
		t.Fatal("expected error for heavy payload without metadata")
	}
	lp, _ := makePayloads(0, 0, 1)
	if err := sink.SendLight(lp); err != nil {
		t.Fatal(err)
	}
	if err := sink.SendLight(lp); err == nil {
		t.Fatal("expected error for two light payloads in a row")
	}
	if err := sink.SendLight(nil); err == nil {
		t.Fatal("expected error for nil light payload")
	}
	if err := sink.SendHeavy(nil); err == nil {
		t.Fatal("expected error for nil heavy payload")
	}
}

func TestLocalSinkSatisfiesBackendFrameSink(t *testing.T) {
	var _ backend.FrameSink = (*LocalSink)(nil)
}

func TestServeConnEndToEnd(t *testing.T) {
	// A back-end goroutine streams two frames over a real wire.Conn pair; the
	// viewer services the connection, logs the paper's tags and replies with
	// axis hints (no in-process hook configured).
	const frames = 2
	logger := netlogger.New("viewerhost", "viewer")
	v := newTestViewer(t, 1, func(c *Config) { c.Logger = logger })

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type beResult struct {
		hints int
		err   error
	}
	beCh := make(chan beResult, 1)
	go func() {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			beCh <- beResult{err: err}
			return
		}
		conn := wire.NewConn(c)
		defer conn.Close()
		hints := 0
		for f := 0; f < frames; f++ {
			lp, hp := makePayloads(f, 0, 1)
			if err := conn.SendLight(lp); err != nil {
				beCh <- beResult{err: err}
				return
			}
			if err := conn.SendHeavy(hp); err != nil {
				beCh <- beResult{err: err}
				return
			}
			m, err := conn.ReadMessage()
			if err != nil {
				beCh <- beResult{err: err}
				return
			}
			if m.Type == wire.MsgAxisHint {
				hints++
			}
		}
		conn.SendDone()
		beCh <- beResult{hints: hints}
	}()

	serveErr := make(chan error, 1)
	go func() {
		conns, err := wire.AcceptConns(context.Background(), l, 1, 0)
		if err != nil {
			serveErr <- err
			return
		}
		serveErr <- v.ServeConns(conns...)
	}()

	be := <-beCh
	if be.err != nil {
		t.Fatalf("back-end side: %v", be.err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if be.hints != frames {
		t.Fatalf("received %d axis hints, want %d", be.hints, frames)
	}
	if v.Stats().FramesCompleted != frames {
		t.Fatalf("frames completed = %d, want %d", v.Stats().FramesCompleted, frames)
	}
	// The viewer must have emitted the paper's Table 1 tags.
	a := netlogger.Analyze(logger.Events())
	heavies := a.Phases(netlogger.VHeavyPayloadStart, netlogger.VHeavyPayloadEnd)
	if len(heavies) != frames {
		t.Fatalf("got %d heavy-payload phases, want %d", len(heavies), frames)
	}
}

func TestEndToEndWithRealBackEnd(t *testing.T) {
	// Full in-process pipeline: synthetic data -> backend (overlapped) ->
	// LocalSink -> viewer scene graph, with axis hints wired back.
	const pes, steps = 2, 3
	vols := make([]*volume.Volume, steps)
	for i := range vols {
		v := volume.MustNew(16, 12, 8)
		v.Fill(float32(i+1) / float32(steps+1))
		vols[i] = v
	}
	src, err := backend.NewMemorySource(vols...)
	if err != nil {
		t.Fatal(err)
	}

	var be *backend.BackEnd
	vw := newTestViewer(t, pes, func(c *Config) {
		c.Timesteps = steps
		c.AxisHint = func(frame int, axis volume.Axis) {
			if be != nil {
				be.SetAxis(axis)
			}
		}
	})
	sink := NewLocalSink(vw)
	be, err = backend.New(backend.Config{
		PEs: pes, Source: src, Sinks: []backend.FrameSink{sink},
		Mode: backend.Overlapped, Axis: volume.AxisZ,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Run(context.Background()); err != nil {
		t.Fatalf("backend run: %v", err)
	}
	st := vw.Stats()
	if st.FramesCompleted != steps {
		t.Fatalf("viewer completed %d frames, want %d", st.FramesCompleted, steps)
	}
	if got := len(vw.Scene().TextureQuads()); got != pes {
		t.Fatalf("scene has %d quads, want %d", got, pes)
	}
}

func TestStatsSceneVersionTracksUpdates(t *testing.T) {
	v := newTestViewer(t, 1)
	before := v.Stats().SceneVersion
	lp, hp := makePayloads(0, 0, 1)
	if err := v.Deliver(lp, hp); err != nil {
		t.Fatal(err)
	}
	if v.Stats().SceneVersion <= before {
		t.Fatal("scene version did not advance after a delivery")
	}
}
