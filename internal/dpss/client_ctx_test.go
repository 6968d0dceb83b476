package dpss

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// stalledBlockServer is a fake DPSS block server that accepts connections and
// reads requests but, while stalled, never replies — the shape of a wedged or
// partitioned server that used to pin a back-end PE until the next frame
// boundary. Unstalled, it answers msgReadv with a sequenced msgOK2 of
// zero-filled blocks of the advertised size and msgWriteBlock with msgOK.
// With hangup set it closes the connection on the next request instead — a
// peer that dies mid-exchange.
type stalledBlockServer struct {
	l       net.Listener
	stalled atomic.Bool
	hangup  atomic.Bool
	block   []byte
}

func newStalledBlockServer(t *testing.T, blockSize int) *stalledBlockServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &stalledBlockServer{l: l, block: make([]byte, blockSize)}
	s.stalled.Store(true)
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return s
}

func (s *stalledBlockServer) serve(conn net.Conn) {
	defer conn.Close()
	for {
		msgType, payload, err := readFrame(conn)
		if err != nil || s.hangup.Load() {
			return
		}
		if s.stalled.Load() {
			// Swallow the request: the client's read blocks until its
			// context or op timeout gives up on the connection.
			continue
		}
		switch msgType {
		case msgReadv:
			respType, body := readvReply(payload, func(string, int64) ([]byte, error) { return s.block, nil })
			err = writeFrame(conn, respType, body)
		case msgWriteBlock:
			err = writeFrame(conn, msgOK, nil)
		default:
			err = writeFrame(conn, msgError, []byte("dpss: unexpected message"))
		}
		if err != nil {
			return
		}
	}
}

// readvReply answers one msgReadv payload (seq prefix first) the way a block
// server does: a sequenced msgOK2 carrying every extent cut from the block
// read returns, or a sequenced msgError2.
func readvReply(payload []byte, read func(dataset string, block int64) ([]byte, error)) (msgType byte, body []byte) {
	if len(payload) < 4 {
		return msgError, []byte("dpss: short sequenced request")
	}
	body = append(body, payload[:4]...)
	dataset, exts, err := decodeReadvRequest(payload[4:])
	for i := 0; err == nil && i < len(exts); i++ {
		x := exts[i]
		var data []byte
		if data, err = read(dataset, x.block); err == nil && int(x.off)+int(x.n) > len(data) {
			err = fmt.Errorf("%w: extent outside block %d", ErrProtocol, x.block)
		}
		if err == nil {
			body = append(body, data[x.off:x.off+x.n]...)
		}
	}
	if err != nil {
		return msgError2, append(body[:4], err.Error()...)
	}
	return msgOK2, body
}

// TestReadAtContextCancelsStalledRead is the regression test for the
// context-aware DPSS read path: a cancelled context must abort a block read
// that is blocked on a stalled server immediately, not wait for the server to
// come back, and the stripe pool must serve the next read once it does.
func TestReadAtContextCancelsStalledRead(t *testing.T) {
	const blockSize = 1024
	srv := newStalledBlockServer(t, blockSize)

	client := NewClient("127.0.0.1:1") // the master is never contacted
	defer client.Close()
	f := &File{client: client, info: DatasetInfo{
		Name: "stalled.t0000", Size: 4 * blockSize, BlockSize: blockSize,
		Servers: []string{srv.l.Addr().String()},
	}}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	buf := make([]byte, blockSize)
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := f.ReadAtContext(ctx, buf, 0)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ReadAtContext did not return after cancellation: the in-flight block read was not aborted")
	}
	if err == nil {
		t.Fatal("ReadAtContext returned nil error against a stalled server")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadAtContext error = %v, want a context.Canceled cause", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}

	// The withdrawn request never gets an answer, but it must not wedge
	// the stripe pool: once the server behaves, a fresh read succeeds.
	srv.stalled.Store(false)
	if _, err := f.ReadAtContext(context.Background(), buf, 0); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
}

// TestReadAtContextPreCancelled: an already-cancelled context fails fast
// without touching the network.
func TestReadAtContextPreCancelled(t *testing.T) {
	srv := newStalledBlockServer(t, 64)
	client := NewClient("127.0.0.1:1")
	defer client.Close()
	f := &File{client: client, info: DatasetInfo{
		Name: "pre.t0000", Size: 64, BlockSize: 64,
		Servers: []string{srv.l.Addr().String()},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.ReadAtContext(ctx, make([]byte, 64), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled read error = %v, want context.Canceled", err)
	}
}
