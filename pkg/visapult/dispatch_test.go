package visapult

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"visapult/internal/wire"
)

// failWriteConn is a connection whose every write fails.
type failWriteConn struct{ net.Conn }

func (failWriteConn) Write([]byte) (int, error) { return 0, errors.New("synthetic write failure") }

// A run request that never reaches the worker must fail the dispatch at
// once, naming the send — not publish a handle and wait for replies to a
// request the worker never saw.
func TestDispatchReportsFailedRunSend(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	handled := false
	_, err := dispatchOn(ctx, failWriteConn{client}, "worker:1", "r", quickSpec(), nil,
		func(*dispatchHandle) { handled = true }, nil)
	if err == nil || !strings.Contains(err.Error(), "sending run") {
		t.Fatalf("dispatch over a failing connection: got %v, want a send error", err)
	}
	if ctx.Err() != nil {
		t.Fatal("dispatch waited for its context instead of reporting the send failure")
	}
	if handled {
		t.Fatal("dispatch handle published for a run request that was never sent")
	}
}

// A peer that accepts the connection and then says nothing is a timeout, not
// a protocol mismatch.
func TestPingSilentPeerTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err = pingWorker(ctx, ln.Addr().String())
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("ping of a silent peer: got %v, want a timeout", err)
	}
	if errors.Is(err, ErrWireVersion) {
		t.Fatalf("a timeout was reported as a wire mismatch: %v", err)
	}
}

// fuzzRunSpec is the only spec FuzzWorkerHandshake lets the worker execute:
// small enough to start and abort in milliseconds.
func fuzzRunSpec() RunSpec {
	return RunSpec{Source: SourceSpec{Kind: "combustion", NX: 8, NY: 8, NZ: 8, Timesteps: 1}, PEs: 1}
}

// dispatchOpening encodes the magic followed by one frame.
func dispatchOpening(t wire.DType, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(wire.DispatchMagic)
	wire.NewDispatchConn(bytes.NewReader(nil), &buf).WriteFrame(t, payload) //nolint:errcheck // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// runsForeignSpec reports whether data opens a well-formed run of any spec
// other than fuzzRunSpec. Those are skipped: the fuzz targets the handshake,
// and a mutated spec could ask for a huge volume or a remote data source.
func runsForeignSpec(data []byte) bool {
	if len(data) < len(wire.DispatchMagic) {
		return false
	}
	dc := wire.NewDispatchConn(bytes.NewReader(data[len(wire.DispatchMagic):]), io.Discard)
	t, payload, err := dc.ReadFrame()
	if err != nil || t != wire.DRun {
		return false
	}
	var rm wire.DispatchRun
	if rm.Decode(payload) != nil {
		return false
	}
	var spec RunSpec
	if json.Unmarshal(rm.Spec, &spec) != nil {
		return false
	}
	return !reflect.DeepEqual(spec, fuzzRunSpec())
}

// FuzzWorkerHandshake feeds arbitrary opening bytes to the worker's
// connection handler. Whatever arrives, the handler must not panic, must
// return once the peer closes, and must not leave a capacity slot claimed.
func FuzzWorkerHandshake(f *testing.F) {
	specJSON, err := json.Marshal(fuzzRunSpec())
	if err != nil {
		f.Fatal(err)
	}
	run := wire.DispatchRun{Name: "fuzz", Spec: specJSON}
	f.Add(dispatchOpening(wire.DPing, nil))
	f.Add(dispatchOpening(wire.DRun, run.Append(nil)))
	f.Add([]byte(`{"op":"ping"}` + "\n"))
	f.Add([]byte(wire.DispatchMagic[:2]))
	f.Add(append([]byte(wire.DispatchMagic), byte(wire.DRun), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if runsForeignSpec(data) {
			t.Skip("run of a spec other than fuzzRunSpec")
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ws := &workerServer{ctx: ctx, capacity: 1, logf: func(string, ...any) {},
			conns: make(map[net.Conn]struct{})}
		client, server := net.Pipe()
		ws.wg.Add(1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			ws.handle(server)
		}()
		// Drain replies until the client closes; the worker may hang up
		// before taking all of data.
		go io.Copy(io.Discard, client)                       //nolint:errcheck
		client.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		client.Write(data)                                   //nolint:errcheck
		client.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not return after the peer closed")
		}
		if n := ws.active.Load(); n != 0 {
			t.Fatalf("worker left %d capacity slots claimed", n)
		}
	})
}
