package visapult

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"visapult/internal/wire"
)

// startCachingWorker is startTestWorker with a slab-texture cache, so repeat
// dispatches of the same content replay instead of re-rendering.
func startCachingWorker(t *testing.T, capacity int, cacheBytes int64) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := ServeWorker(ctx, ln, WorkerConfig{Capacity: capacity, FrameCacheBytes: cacheBytes}); err != nil {
			t.Errorf("ServeWorker: %v", err)
		}
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	pctx, pcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer pcancel()
	if _, err := pingWorker(pctx, ln.Addr().String()); err != nil {
		t.Fatalf("test worker never came up: %v", err)
	}
	return ln.Addr().String(), stop
}

// coalesceSpec renders long enough for followers to ride it and carries a
// viewer so the fan-out stage exists.
func coalesceSpec() RunSpec {
	s := slowSpec()
	s.Viewers = 1
	return s
}

func isCoalesced(st RunStatus) bool {
	return strings.HasPrefix(st.Worker, "coalesced:")
}

// A run's coalesce leadership is released before its done channel closes,
// so Wait never returns while an immediate Prune or identical submission
// would still find the finished run leading its render key. The test holds
// the manager's lock while the worker delivers the result: done must not
// close until the leader has been able to take that lock and drop its claim.
func TestWaitReleasesCoalesceLeadership(t *testing.T) {
	accepted := make(chan struct{})
	release := make(chan struct{})
	addr := startFakeWorker(t, func(dc *wire.DispatchConn) {
		close(accepted)
		<-release
		dc.WriteFrame(wire.DResult, []byte(`{}`))
		dc.ReadFrame() // hold the connection until the dispatcher hangs up
	})
	m := NewManager(1)
	defer m.Close()
	if _, err := m.RegisterWorker(context.Background(), addr, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateSpec("lead", quickSpec()); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("lead"); err != nil {
		t.Fatal(err)
	}
	r, err := m.get("lead")
	if err != nil {
		t.Fatal(err)
	}
	<-accepted

	m.mu.Lock()
	close(release)
	select {
	case <-r.done:
		m.mu.Unlock()
		t.Fatal("run finished while its coalesce claim could not yet be dropped")
	case <-time.After(50 * time.Millisecond):
	}
	m.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, "lead"); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	leader, held := m.coalesce[r.renderKey]
	m.mu.Unlock()
	if held {
		t.Fatalf("Wait returned while run %q still leads its render key", leader.name)
	}
}

// Identical submissions must coalesce onto one live local render: the leader
// runs once, followers relay its metrics and adopt its result, and their
// viewers join the leader's fan-out.
func TestCoalesceLocal(t *testing.T) {
	m := NewManager(4)
	defer m.Close()

	spec := coalesceSpec()
	if err := m.CreateSpec("leader", spec); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("leader"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "leader running", func() bool {
		st, err := m.Status("leader")
		return err == nil && st.State == StateRunning
	})

	for _, name := range []string{"f1", "f2"} {
		if err := m.CreateSpec(name, spec); err != nil {
			t.Fatal(err)
		}
		if err := m.Start(name); err != nil {
			t.Fatal(err)
		}
	}

	results := make(map[string]*Result)
	for _, name := range []string{"leader", "f1", "f2"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := m.Wait(ctx, name)
		cancel()
		if err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		results[name] = res
	}

	// Exactly one render happened: the leader executed locally, both
	// followers rode it.
	lst, _ := m.Status("leader")
	if isCoalesced(lst) {
		t.Errorf("leader should have executed itself, worker = %q", lst.Worker)
	}
	for _, name := range []string{"f1", "f2"} {
		st, _ := m.Status(name)
		if !isCoalesced(st) {
			t.Errorf("run %s should have coalesced, worker = %q", name, st.Worker)
		}
		if st.Worker != "coalesced:leader" {
			t.Errorf("run %s coalesced onto %q, want coalesced:leader", name, st.Worker)
		}
	}

	// Followers adopt the leader's result, so the frame totals agree.
	for _, name := range []string{"f1", "f2"} {
		if got, want := results[name].Backend.Frames, results["leader"].Backend.Frames; got != want {
			t.Errorf("run %s result frames = %d, leader rendered %d", name, got, want)
		}
	}

	// The followers' viewers joined the leader's fan-out under
	// "<follower>/v<i>" ids, and every viewer of the shared run saw the same
	// frame sequence (no drops on an unloaded local sink).
	seen := make(map[string]ViewerResult)
	for _, d := range results["leader"].Viewers {
		seen[d.ID] = d
	}
	for _, id := range []string{"f1/v0", "f2/v0"} {
		if _, ok := seen[id]; !ok {
			t.Errorf("leader result is missing coalesced viewer %s (have %v)", id, resultIDs(results["leader"].Viewers))
		}
	}
	for _, d := range results["leader"].Viewers {
		if d.Delivery.FramesDropped != 0 {
			t.Errorf("viewer %s dropped %d frames", d.ID, d.Delivery.FramesDropped)
		}
	}

	// Metric relay: followers hold the same (frame, PE) set the leader does.
	lm, err := m.Metrics("leader")
	if err != nil {
		t.Fatal(err)
	}
	want := metricKeys(lm)
	for _, name := range []string{"f1", "f2"} {
		fm, err := m.Metrics(name)
		if err != nil {
			t.Fatal(err)
		}
		got := metricKeys(fm)
		if len(got) != len(want) {
			t.Errorf("run %s relayed %d distinct frame metrics, leader has %d", name, len(got), len(want))
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("run %s is missing relayed metric %v", name, k)
			}
		}
	}
}

func viewerIDs(ds []ViewerDelivery) []string {
	ids := make([]string, len(ds))
	for i, d := range ds {
		ids[i] = d.ID
	}
	return ids
}

func resultIDs(ds []ViewerResult) []string {
	ids := make([]string, len(ds))
	for i, d := range ds {
		ids[i] = d.ID
	}
	return ids
}

func metricKeys(ms []FrameMetric) map[[2]int]struct{} {
	keys := make(map[[2]int]struct{})
	for _, fm := range ms {
		keys[[2]int{fm.Frame, fm.PE}] = struct{}{}
	}
	return keys
}

// Coalescing must hold across remote placement: with one single-slot worker,
// N identical submissions produce exactly one dispatched render, and the
// followers' viewer attaches travel the dispatch protocol to the worker's
// fan-out.
func TestCoalesceRemote(t *testing.T) {
	m := NewManager(4)
	defer m.Close()
	addr, _ := startTestWorker(t, 1)
	if _, err := m.RegisterWorker(context.Background(), addr, 0); err != nil {
		t.Fatal(err)
	}

	spec := coalesceSpec()
	if err := m.CreateSpec("leader", spec); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("leader"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "leader running remotely", func() bool {
		st, err := m.Status("leader")
		return err == nil && st.State == StateRunning && st.Worker != "" && st.Worker != "local"
	})
	for _, name := range []string{"f1", "f2"} {
		if err := m.CreateSpec(name, spec); err != nil {
			t.Fatal(err)
		}
		if err := m.Start(name); err != nil {
			t.Fatal(err)
		}
	}

	// While the shared render is live, the followers' viewers must become
	// visible through the leader's remote fan-out.
	waitUntil(t, "coalesced viewers visible over the dispatch protocol", func() bool {
		vds, err := m.Viewers("leader")
		if err != nil {
			return false
		}
		found := 0
		for _, d := range vds {
			if d.ID == "f1/v0" || d.ID == "f2/v0" {
				found++
			}
		}
		return found == 2
	})

	for _, name := range []string{"leader", "f1", "f2"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := m.Wait(ctx, name); err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		cancel()
	}
	lst, _ := m.Status("leader")
	if lst.Worker == "" || lst.Worker == "local" || isCoalesced(lst) {
		t.Errorf("leader should have been placed on the remote worker, got %q", lst.Worker)
	}
	for _, name := range []string{"f1", "f2"} {
		st, _ := m.Status(name)
		if st.Worker != "coalesced:leader" {
			t.Errorf("run %s worker = %q, want coalesced:leader", name, st.Worker)
		}
	}
}

// A viewer attached through the manager while the run executes on a remote
// worker must reach the worker's fan-out over the dispatch connection.
func TestRemoteViewerAttachDetach(t *testing.T) {
	m := NewManager(2)
	defer m.Close()
	addr, _ := startTestWorker(t, 1)
	if _, err := m.RegisterWorker(context.Background(), addr, 0); err != nil {
		t.Fatal(err)
	}

	spec := coalesceSpec()
	if err := m.CreateSpec("remote", spec); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("remote"); err != nil {
		t.Fatal(err)
	}
	// Attach retries until the worker's pipeline publishes its fan-out.
	waitUntil(t, "late viewer attached across the dispatch protocol", func() bool {
		return m.AttachViewer("remote", "late-wall") == nil
	})
	vds, err := m.Viewers("remote")
	if err != nil {
		t.Fatalf("Viewers over dispatch: %v", err)
	}
	found := false
	for _, d := range vds {
		if d.ID == "late-wall" && !d.Detached {
			found = true
		}
	}
	if !found {
		t.Errorf("late-wall not in remote viewer list: %v", viewerIDs(vds))
	}
	if err := m.DetachViewer("remote", "late-wall"); err != nil {
		t.Errorf("remote detach: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, "remote"); err != nil {
		t.Fatal(err)
	}
}

// A replay of an already-rendered spec must be served from the frame cache:
// hit counters move, the raycaster is skipped (CacheHit on every frame
// metric), and the rendered output still reaches the viewer.
func TestReplayServedFromFrameCache(t *testing.T) {
	m := NewManager(2)
	defer m.Close()
	m.SetFrameCacheCapacity(64 << 20)

	spec := quickSpec()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := m.CreateSpec("cold", spec); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("cold"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, "cold"); err != nil {
		t.Fatal(err)
	}
	cold := m.FrameCacheStats()
	if cold.Misses == 0 || cold.Entries == 0 {
		t.Fatalf("cold run should have populated the cache: %+v", cold)
	}
	if cold.Hits != 0 {
		t.Fatalf("cold run should not hit: %+v", cold)
	}
	for _, fm := range mustMetrics(t, m, "cold") {
		if fm.CacheHit {
			t.Errorf("cold frame (%d, PE %d) claims a cache hit", fm.Frame, fm.PE)
		}
	}

	if err := m.CreateSpec("replay", spec); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("replay"); err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(ctx, "replay")
	if err != nil {
		t.Fatal(err)
	}
	warm := m.FrameCacheStats()
	if warm.Hits == 0 {
		t.Errorf("replay produced no cache hits: %+v", warm)
	}
	if warm.Misses != cold.Misses {
		t.Errorf("replay missed the cache: misses %d -> %d", cold.Misses, warm.Misses)
	}
	metrics := mustMetrics(t, m, "replay")
	if len(metrics) == 0 {
		t.Fatal("replay produced no frame metrics")
	}
	for _, fm := range metrics {
		if !fm.CacheHit {
			t.Errorf("replay frame (%d, PE %d) was re-rendered", fm.Frame, fm.PE)
		}
		if fm.BytesLoaded != 0 || fm.Render != 0 {
			t.Errorf("replay frame (%d, PE %d) touched the source or raycaster: loaded %d, render %v",
				fm.Frame, fm.PE, fm.BytesLoaded, fm.Render)
		}
	}
	if res.Viewer.FramesCompleted == 0 {
		t.Error("replayed frames never reached the viewer")
	}

	// Flush drops frames but keeps counters; the next run re-renders.
	m.FlushFrameCache()
	flushed := m.FrameCacheStats()
	if flushed.Entries != 0 || flushed.Bytes != 0 {
		t.Errorf("flush left residue: %+v", flushed)
	}
	if flushed.Hits != warm.Hits {
		t.Errorf("flush reset the hit counter: %+v", flushed)
	}
}

// A worker-side cache serves repeat dispatches of the same content: the
// second remote run's frames come back flagged as cache hits.
func TestWorkerFrameCacheReplay(t *testing.T) {
	m := NewManager(2)
	defer m.Close()
	addr, _ := startCachingWorker(t, 1, 64<<20)
	if _, err := m.RegisterWorker(context.Background(), addr, 0); err != nil {
		t.Fatal(err)
	}

	spec := quickSpec()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, name := range []string{"first", "second"} {
		if err := m.CreateSpec(name, spec); err != nil {
			t.Fatal(err)
		}
		if err := m.Start(name); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	for _, fm := range mustMetrics(t, m, "first") {
		if fm.CacheHit {
			t.Errorf("first dispatch frame (%d, PE %d) claims a cache hit", fm.Frame, fm.PE)
		}
	}
	metrics := mustMetrics(t, m, "second")
	if len(metrics) == 0 {
		t.Fatal("second dispatch streamed no metrics")
	}
	for _, fm := range metrics {
		if !fm.CacheHit {
			t.Errorf("second dispatch frame (%d, PE %d) was re-rendered on the worker", fm.Frame, fm.PE)
		}
	}
}

func mustMetrics(t *testing.T, m *Manager, name string) []FrameMetric {
	t.Helper()
	ms, err := m.Metrics(name)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// The pruner must never collect a run that is still the coalesce target of a
// live submission or still relaying metrics to followers.
func TestPruneSparesCoalesceTargetAndRelays(t *testing.T) {
	m := NewManager(1)
	defer m.Close()
	spec := quickSpec()
	if err := m.CreateSpec("leader", spec); err != nil {
		t.Fatal(err)
	}
	if err := m.Start("leader"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, "leader"); err != nil {
		t.Fatal(err)
	}

	// Simulate the window where a terminal run is still the coalesce target
	// of a submission that has not resolved leadership yet.
	m.mu.Lock()
	r := m.runs["leader"]
	m.coalesce[r.renderKey] = r
	m.mu.Unlock()
	if n := m.Prune(0); n != 0 {
		t.Errorf("pruned %d runs while one was a live coalesce target", n)
	}
	m.mu.Lock()
	delete(m.coalesce, r.renderKey)
	m.mu.Unlock()

	// A follower still riding the metric relay also pins the run.
	follower := &managedRun{name: "follower"}
	r.addFollower(follower)
	if n := m.Prune(0); n != 0 {
		t.Errorf("pruned %d runs while one had a live relay", n)
	}
	r.removeFollower(follower)

	// With both released, the terminal run is collectable again.
	if n := m.Prune(0); n != 1 {
		t.Errorf("pruned %d runs, want 1", n)
	}
}

func TestHasAttachedViewer(t *testing.T) {
	if hasAttachedViewer(nil) {
		t.Error("empty list should have no attached viewer")
	}
	if hasAttachedViewer([]ViewerDelivery{{ID: "a", Detached: true}}) {
		t.Error("all-detached list should have no attached viewer")
	}
	if !hasAttachedViewer([]ViewerDelivery{{ID: "a", Detached: true}, {ID: "b"}}) {
		t.Error("list with a live viewer should report attached")
	}
}
