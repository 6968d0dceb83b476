package testutil

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"visapult/internal/backend"
	"visapult/internal/viewer"
)

// frameKey summarizes one assembled frame for sequence comparison.
type frameKey struct {
	Frame      int
	PEsArrived int
	Bytes      int64
}

func frameSequence(recs []viewer.FrameRecord) []frameKey {
	out := make([]frameKey, len(recs))
	for i, r := range recs {
		out[i] = frameKey{Frame: r.Frame, PEsArrived: r.PEsArrived, Bytes: r.Bytes}
	}
	return out
}

// TestFanoutThreeViewersIdenticalFrameSequences is the acceptance scenario's
// first half: one run feeds three concurrent viewers over real TCP on
// loopback and all of them assemble identical frame sequences.
func TestFanoutThreeViewersIdenticalFrameSequences(t *testing.T) {
	const pes, steps = 2, 4
	h := NewHarness(t, HarnessConfig{PEs: pes, Timesteps: steps})
	var hvs []*HarnessViewer
	for i := 0; i < 3; i++ {
		hvs = append(hvs, h.AttachViewer(fmt.Sprintf("display-%d", i)))
	}

	stats, err := h.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Frames != steps {
		t.Fatalf("backend processed %d frames, want %d", stats.Frames, steps)
	}

	ref := frameSequence(hvs[0].Frames())
	if len(ref) != steps {
		t.Fatalf("viewer 0 assembled %d frames, want %d: %+v", len(ref), steps, ref)
	}
	for _, fk := range ref {
		if fk.PEsArrived != pes {
			t.Errorf("viewer 0 frame %d has %d PEs, want %d", fk.Frame, fk.PEsArrived, pes)
		}
	}
	for _, hv := range hvs[1:] {
		seq := frameSequence(hv.Frames())
		if len(seq) != len(ref) {
			t.Fatalf("viewer %s assembled %d frames, viewer 0 assembled %d", hv.ID, len(seq), len(ref))
		}
		for i := range seq {
			if seq[i] != ref[i] {
				t.Errorf("viewer %s frame %d = %+v, viewer 0 saw %+v", hv.ID, i, seq[i], ref[i])
			}
		}
		if hv.ServeErr() != nil {
			t.Errorf("viewer %s serve error: %v", hv.ID, hv.ServeErr())
		}
		if d := hv.Delivery(); d.FramesSent != pes*steps || d.FramesDropped != 0 {
			t.Errorf("viewer %s delivery = %+v, want %d sent / 0 dropped", hv.ID, d, pes*steps)
		}
	}
}

// TestStalledViewerDoesNotBlockRenderLoopOrOthers is the acceptance
// scenario's second half: a viewer whose connections stall from the start
// neither blocks the render loop (the run finishes) nor the other viewers
// (they assemble every frame); the stalled viewer's frames are dropped past
// its bounded queue.
func TestStalledViewerDoesNotBlockRenderLoopOrOthers(t *testing.T) {
	const pes, steps, queue = 2, 6, 2
	// The frame delay paces the render loop like real rendering does, so the
	// healthy viewers keep up with the tiny queue while the stalled one
	// overflows it.
	h := NewHarness(t, HarnessConfig{PEs: pes, Timesteps: steps, Queue: queue, FrameDelay: 20 * time.Millisecond})
	healthyA := h.AttachViewer("desk")
	healthyB := h.AttachViewer("wall")
	stalled := h.AttachStalledViewer("dead")

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stats, err := h.Run(ctx)
	if err != nil {
		t.Fatalf("Run with a stalled viewer failed: %v", err)
	}
	if stats.Frames != steps {
		t.Fatalf("backend processed %d frames, want %d", stats.Frames, steps)
	}
	// The run must not have been paced by the stalled viewer. Without the
	// fan-out's decoupling it would sit on a full TCP buffer until the test
	// context expired; with it, the whole run plus teardown stays inside the
	// drain grace.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("run took %v with a stalled viewer attached", elapsed)
	}

	for _, hv := range []*HarnessViewer{healthyA, healthyB} {
		if got := hv.Stats().FramesCompleted; got != steps {
			t.Errorf("healthy viewer %s completed %d frames, want %d", hv.ID, got, steps)
		}
		if d := hv.Delivery(); d.FramesDropped != 0 {
			t.Errorf("healthy viewer %s dropped %d frames", hv.ID, d.FramesDropped)
		}
	}
	d := stalled.Delivery()
	if d.FramesDropped == 0 {
		t.Errorf("stalled viewer dropped nothing: %+v", d)
	}
	if d.FramesSent+d.FramesDropped != pes*steps {
		t.Errorf("stalled viewer sent %d + dropped %d, want %d published pairs",
			d.FramesSent, d.FramesDropped, pes*steps)
	}
}

// TestStalledViewerTeardownSpendsOneGrace: a stalled viewer's teardown pays
// one grace in all, not the fan-out's drain and then the end-of-stream wait
// in series — both for Run's teardown and for a mid-run Detach.
func TestStalledViewerTeardownSpendsOneGrace(t *testing.T) {
	const pes, limit = 2, teardownGrace * 3 / 2
	t.Run("Run", func(t *testing.T) {
		h := NewHarness(t, HarnessConfig{PEs: pes, Timesteps: 3, Queue: 2})
		h.AttachViewer("desk")
		h.AttachStalledViewer("dead")
		start := time.Now()
		if _, err := h.Run(context.Background()); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if elapsed := time.Since(start); elapsed > limit {
			t.Errorf("Run with a stalled viewer took %v, want under %v", elapsed, limit)
		}
	})
	t.Run("Detach", func(t *testing.T) {
		var framesDone atomic.Int32
		h := NewHarness(t, HarnessConfig{
			PEs: pes, Timesteps: 8, Queue: 2,
			FrameDelay: 20 * time.Millisecond,
			OnFrame:    func(backend.FrameStats) { framesDone.Add(1) },
		})
		h.AttachViewer("stay")
		dead := h.AttachStalledViewer("dead")
		done := make(chan error, 1)
		go func() {
			_, err := h.Run(context.Background())
			done <- err
		}()
		for framesDone.Load() < 2*pes {
			time.Sleep(2 * time.Millisecond)
		}
		start := time.Now()
		if err := dead.Detach(); err != nil {
			t.Fatalf("Detach: %v", err)
		}
		if elapsed := time.Since(start); elapsed > limit {
			t.Errorf("detaching a stalled viewer took %v, want under %v", elapsed, limit)
		}
		if err := <-done; err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
}

// TestLateAttachStartsAtNextFrameBoundary: a viewer attached while the run
// is in flight receives a clean suffix of the frame sequence — every frame
// it assembles is complete (all PEs), and nothing before its start frame is
// delivered.
func TestLateAttachStartsAtNextFrameBoundary(t *testing.T) {
	const pes, steps = 2, 8
	var framesDone atomic.Int32
	h := NewHarness(t, HarnessConfig{
		PEs: pes, Timesteps: steps,
		FrameDelay: 20 * time.Millisecond,
		OnFrame:    func(fs backend.FrameStats) { framesDone.Add(1) },
	})
	early := h.AttachViewer("early")

	type runResult struct {
		stats backend.RunStats
		err   error
	}
	done := make(chan runResult, 1)
	go func() {
		stats, err := h.Run(context.Background())
		done <- runResult{stats, err}
	}()

	// Attach once at least two frames are through the pipeline.
	deadline := time.Now().Add(30 * time.Second)
	for framesDone.Load() < 2*pes {
		if time.Now().After(deadline) {
			t.Fatal("run never progressed past two frames")
		}
		time.Sleep(2 * time.Millisecond)
	}
	late := h.AttachViewer("late")

	res := <-done
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}

	d := late.Delivery()
	if d.StartFrame < 1 {
		t.Errorf("late viewer StartFrame = %d, want >= 1 (attached mid-run)", d.StartFrame)
	}
	recs := late.Frames()
	if len(recs) == 0 {
		t.Fatal("late viewer received nothing")
	}
	for _, r := range recs {
		if r.Frame < d.StartFrame {
			t.Errorf("late viewer received frame %d before its start frame %d", r.Frame, d.StartFrame)
		}
		if r.PEsArrived != pes {
			t.Errorf("late viewer frame %d is torn: %d of %d PEs", r.Frame, r.PEsArrived, pes)
		}
	}
	// The suffix is contiguous through the final frame.
	if last := recs[len(recs)-1].Frame; last != steps-1 {
		t.Errorf("late viewer's last frame is %d, want %d", last, steps-1)
	}
	if want := steps - d.StartFrame; len(recs) != want {
		t.Errorf("late viewer assembled %d frames, want %d (frames %d..%d)",
			len(recs), want, d.StartFrame, steps-1)
	}
	// The early viewer saw everything.
	if got := early.Stats().FramesCompleted; got != steps {
		t.Errorf("early viewer completed %d frames, want %d", got, steps)
	}
}

// TestDetachMidRunLeavesOthersIntact: detaching a viewer mid-run keeps its
// delivery record and does not disturb the remaining viewer.
func TestDetachMidRunLeavesOthersIntact(t *testing.T) {
	const pes, steps = 2, 8
	var framesDone atomic.Int32
	h := NewHarness(t, HarnessConfig{
		PEs: pes, Timesteps: steps,
		FrameDelay: 20 * time.Millisecond,
		OnFrame:    func(backend.FrameStats) { framesDone.Add(1) },
	})
	stay := h.AttachViewer("stay")
	leave := h.AttachViewer("leave")

	done := make(chan error, 1)
	go func() {
		_, err := h.Run(context.Background())
		done <- err
	}()

	deadline := time.Now().Add(30 * time.Second)
	for framesDone.Load() < 2*pes {
		if time.Now().After(deadline) {
			t.Fatal("run never progressed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := leave.Detach(); err != nil {
		t.Fatalf("Detach: %v", err)
	}

	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := stay.Stats().FramesCompleted; got != steps {
		t.Errorf("remaining viewer completed %d frames, want %d", got, steps)
	}
	d := h.Deliveries()["leave"]
	if !d.Detached {
		t.Errorf("detached viewer's record = %+v, want Detached", d)
	}
	if d.FramesSent == 0 {
		t.Errorf("detached viewer delivered nothing before leaving: %+v", d)
	}
}

// TestDetachStalledViewerReturnsPromptly: detaching exactly the viewer an
// operator most wants to remove — one wedged mid-write — must not hang on
// its blocked sender; the teardown unblocks it by failing its connections.
func TestDetachStalledViewerReturnsPromptly(t *testing.T) {
	const pes, steps = 2, 8
	var framesDone atomic.Int32
	h := NewHarness(t, HarnessConfig{
		PEs: pes, Timesteps: steps, Queue: 2,
		FrameDelay: 20 * time.Millisecond,
		OnFrame:    func(backend.FrameStats) { framesDone.Add(1) },
	})
	stay := h.AttachViewer("stay")
	dead := h.AttachStalledViewer("dead")

	done := make(chan error, 1)
	go func() {
		_, err := h.Run(context.Background())
		done <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for framesDone.Load() < 2*pes {
		if time.Now().After(deadline) {
			t.Fatal("run never progressed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	start := time.Now()
	if err := dead.Detach(); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("detaching a stalled viewer took %v", elapsed)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := stay.Stats().FramesCompleted; got != steps {
		t.Errorf("remaining viewer completed %d frames, want %d", got, steps)
	}
	if d := h.Deliveries()["dead"]; !d.Detached {
		t.Errorf("stalled viewer not marked detached: %+v", d)
	}
}
