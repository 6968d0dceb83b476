package dpss

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// TestWriteAtTimesOutAgainstStalledServer is the regression test for the
// operation-timeout write path: a block write whose server accepts the frame
// but never acknowledges it must fail within the client's op timeout even
// when the caller supplied no context deadline at all — before the timeout
// existed, this write pinned its goroutine forever.
func TestWriteAtTimesOutAgainstStalledServer(t *testing.T) {
	const blockSize = 1024
	srv := newStalledBlockServer(t, blockSize)

	client := NewClient("127.0.0.1:1", WithClientTimeout(150*time.Millisecond))
	defer client.Close()
	f := &File{client: client, info: DatasetInfo{
		Name: "wstall.t0000", Size: 4 * blockSize, BlockSize: blockSize,
		Servers: []string{srv.l.Addr().String()},
	}}

	buf := make([]byte, blockSize)
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := f.WriteAtContext(context.Background(), buf, 0)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WriteAtContext did not return: the stalled block write was not bounded by the op timeout")
	}
	if err == nil {
		t.Fatal("WriteAtContext returned nil error against a stalled server")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("WriteAtContext error = %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stalled write took %v to fail, want roughly the 150ms op timeout", elapsed)
	}

	// The timed-out exchange died mid-conversation; its connection must have
	// been discarded. Once the server behaves, a fresh write succeeds on a
	// newly dialed connection instead of failing on the poisoned one.
	srv.stalled.Store(false)
	if _, err := f.WriteAtContext(context.Background(), buf, 0); err != nil {
		t.Fatalf("write after recovery: %v (poisoned connection reused?)", err)
	}
}

// TestWriteAtContextDeadlineBeatsOpTimeout: a caller context deadline shorter
// than the op timeout wins, and the error carries the context cause.
func TestWriteAtContextDeadlineBeatsOpTimeout(t *testing.T) {
	const blockSize = 256
	srv := newStalledBlockServer(t, blockSize)

	client := NewClient("127.0.0.1:1", WithClientTimeout(30*time.Second))
	defer client.Close()
	f := &File{client: client, info: DatasetInfo{
		Name: "wctx.t0000", Size: blockSize, BlockSize: blockSize,
		Servers: []string{srv.l.Addr().String()},
	}}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.WriteAtContext(ctx, make([]byte, blockSize), 0)
	if err == nil {
		t.Fatal("WriteAtContext returned nil error against a stalled server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WriteAtContext error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("context-bounded write took %v, want roughly the 100ms context deadline", elapsed)
	}
}

// skewedDeadlineCtx reports an earlier deadline than the one its Done and Err
// honour: the worst case of the race in which a socket deadline copied from
// ctx.Deadline fires before the context's own timer has marked it done.
type skewedDeadlineCtx struct {
	context.Context
	deadline time.Time
}

func (c skewedDeadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// TestExchangeTimeoutClassification pins how a failed exchange is reported on
// both block-server paths — the lock-step write path and the pipelined
// stripe read — so callers can tell a caller cancel, a caller deadline, the
// client's own op timeout and a dead peer apart with errors.Is / errors.As.
func TestExchangeTimeoutClassification(t *testing.T) {
	const (
		canceled    = "context.Canceled"
		ctxDeadline = "context.DeadlineExceeded"
		opTimeout   = "net timeout"
		peerFailure = "peer failure"
	)
	classify := func(err error) string {
		var nerr net.Error
		switch {
		case errors.Is(err, context.Canceled):
			return canceled
		case errors.Is(err, context.DeadlineExceeded):
			return ctxDeadline
		case errors.As(err, &nerr) && nerr.Timeout():
			return opTimeout
		default:
			return peerFailure
		}
	}
	cases := []struct {
		name      string
		opTimeout time.Duration
		hangup    bool
		ctx       func() (context.Context, context.CancelFunc)
		want      string
	}{
		{"ctx cancel", 30 * time.Second, false, func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			return ctx, cancel
		}, canceled},
		{"ctx deadline", 30 * time.Second, false, func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 100*time.Millisecond)
		}, ctxDeadline},
		{"ctx deadline ahead of its timer", 30 * time.Second, false, func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
			return skewedDeadlineCtx{ctx, time.Now().Add(50 * time.Millisecond)}, cancel
		}, ctxDeadline},
		{"op timeout", 150 * time.Millisecond, false, func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}, opTimeout},
		{"peer close", 30 * time.Second, true, func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}, peerFailure},
	}
	paths := []struct {
		name string
		run  func(ctx context.Context, f *File, buf []byte) error
	}{
		{"write path", func(ctx context.Context, f *File, buf []byte) error {
			_, err := f.WriteAtContext(ctx, buf, 0)
			return err
		}},
		{"stripe read", func(ctx context.Context, f *File, buf []byte) error {
			_, err := f.ReadAtContext(ctx, buf, 0)
			return err
		}},
	}
	const blockSize = 512
	for _, c := range cases {
		for _, p := range paths {
			t.Run(c.name+"/"+p.name, func(t *testing.T) {
				t.Parallel()
				srv := newStalledBlockServer(t, blockSize)
				srv.hangup.Store(c.hangup)
				client := NewClient("127.0.0.1:1", WithClientTimeout(c.opTimeout))
				defer client.Close()
				f := &File{client: client, info: DatasetInfo{
					Name: "classify.t0000", Size: blockSize, BlockSize: blockSize,
					Servers: []string{srv.l.Addr().String()},
				}}
				ctx, cancel := c.ctx()
				defer cancel()
				start := time.Now()
				err := p.run(ctx, f, make([]byte, blockSize))
				if err == nil {
					t.Fatal("exchange against a stalled or closing server returned nil error")
				}
				if got := classify(err); got != c.want {
					t.Fatalf("error %q classifies as %s, want %s", err, got, c.want)
				}
				if elapsed := time.Since(start); elapsed > 3*time.Second {
					t.Fatalf("exchange took %v to fail", elapsed)
				}
			})
		}
	}
}
