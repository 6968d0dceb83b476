package testutil

// Dispatch end-to-end: a registered worker must stream slab payloads into
// the dispatcher's frame cache, and a peer that does not speak the VPD2
// dispatch wire must be refused at registration. These live here rather than
// in pkg/visapult so they exercise the public manager surface exactly as
// cmd/visapultd does.

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"visapult/pkg/visapult"
)

// startDispatchWorker runs an in-process dispatch worker.
func startDispatchWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := visapult.ServeWorker(ctx, ln, visapult.WorkerConfig{
			Capacity:        2,
			FrameCacheBytes: 16 << 20,
		}); err != nil {
			t.Errorf("ServeWorker: %v", err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

func dispatchSpec() visapult.RunSpec {
	return visapult.RunSpec{
		Source: visapult.SourceSpec{Kind: "combustion", NX: 24, NY: 16, NZ: 16, Timesteps: 3, Seed: 7},
		PEs:    2, Mode: "overlapped",
	}
}

func runNamed(t *testing.T, m *visapult.Manager, name string, spec visapult.RunSpec) []visapult.FrameMetric {
	t.Helper()
	if err := m.CreateSpec(name, spec); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(name); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, name); err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	ms, err := m.Metrics(name)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// A peer that accepts the connection but answers the ping in the old JSON
// protocol is not a worker this dispatcher can drive: registration fails
// with ErrWireVersion and the pool stays empty.
func TestRegisterRejectsNonVPD2Worker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.Read(make([]byte, 64))
				io.WriteString(c, `{"pong":{"capacity":1,"active":0}}`+"\n")
			}(conn)
		}
	}()

	m := visapult.NewManager(1)
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = m.RegisterWorker(ctx, ln.Addr().String(), 0)
	if !errors.Is(err, visapult.ErrWireVersion) {
		t.Fatalf("registering a JSON-speaking peer: got %v, want ErrWireVersion", err)
	}
	if ws := m.Workers(); len(ws) != 0 {
		t.Fatalf("rejected peer was added to the pool: %+v", ws)
	}
}

// The run completes over the dispatch wire, and the worker's slab deliveries
// seed the dispatcher's frame cache — a follow-up local run of the same content
// replays from it without rendering.
func TestDispatchV2SlabDeliverySeedsDispatcherCache(t *testing.T) {
	addr := startDispatchWorker(t)
	m := visapult.NewManager(1)
	defer m.Close()
	m.SetFrameCacheCapacity(16 << 20)

	ws, err := m.RegisterWorker(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := dispatchSpec()
	if ms := runNamed(t, m, "remote-v2", spec); len(ms) == 0 {
		t.Fatal("v2 run produced no frame metrics")
	}
	st := m.FrameCacheStats()
	if st.Entries == 0 {
		t.Fatalf("remote run seeded no cache entries: %+v", st)
	}

	// Retire the worker; the same content now runs locally and must replay
	// the remotely rendered slabs.
	if err := m.RemoveWorker(ws.ID); err != nil {
		t.Fatal(err)
	}
	ms := runNamed(t, m, "local-replay", spec)
	hits := 0
	for _, fm := range ms {
		if fm.CacheHit {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("local replay of remotely rendered content scored no cache hits: %+v", m.FrameCacheStats())
	}
}
