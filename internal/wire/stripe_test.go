package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// stripedPair returns the two ends of a striped connection over loopback TCP.
func stripedPair(t testing.TB, lanes int) (dialed, accepted *Stripe) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	sl := NewStripeListener(l, 0)
	defer sl.Close() // accepted stripes stay usable; the accept loop must not outlive the helper
	type result struct {
		s   *Stripe
		err error
	}
	ch := make(chan result, 1)
	go func() {
		s, err := sl.Accept()
		ch <- result{s, err}
	}()
	dialed, err = DialStriped(l.Addr().String(), lanes, 0)
	if err != nil {
		t.Fatalf("dial striped: %v", err)
	}
	r := <-ch
	if r.err != nil {
		dialed.Close()
		t.Fatalf("accept: %v", r.err)
	}
	return dialed, r.s
}

// settleGoroutines polls until the goroutine count is back to before.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	var after int
	for range 200 {
		if after = runtime.NumGoroutine(); after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Errorf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
}

// Once the listener has failed, every Accept returns the error: a second
// call must not block on an accept loop that has already stopped.
func TestStripeListenerAcceptErrorIsSticky(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	sl := NewStripeListener(l, 0)
	sl.Close()
	for i := range 2 {
		done := make(chan error, 1)
		go func() {
			_, err := sl.Accept()
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("Accept %d on a closed listener returned no error", i+1)
			}
		case <-time.After(time.Second):
			t.Fatalf("Accept %d on a closed listener still blocked after 1s", i+1)
		}
	}
}

// A Write wedged behind a peer that never reads must not take Close down
// with it: Close tears the sockets, the Write fails, every goroutine exits.
func TestStripeCloseAbortsWedgedWrite(t *testing.T) {
	before := runtime.NumGoroutine()
	w, peer := stripedPair(t, 2) // peer never calls Read

	writeErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 4<<20)
		for {
			if _, err := w.Write(buf); err != nil {
				writeErr <- err
				return
			}
		}
	}()
	// Let the socket buffers fill so the Write is stuck inside a lane.
	time.Sleep(200 * time.Millisecond)
	select {
	case err := <-writeErr:
		t.Fatalf("write failed before close: %v", err)
	default:
	}

	closed := make(chan struct{})
	go func() {
		w.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind the wedged Write")
	}
	select {
	case err := <-writeErr:
		if err == nil {
			t.Fatal("wedged Write returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wedged Write never returned")
	}
	peer.Close()
	settleGoroutines(t, before)
}

// An orderly Close still hands the peer a clean end of stream.
func TestStripeOrderlyCloseIsCleanEOF(t *testing.T) {
	before := runtime.NumGoroutine()
	w, r := stripedPair(t, 3)
	payload := bytes.Repeat([]byte("visapult"), 40000) // several chunks per lane, short tail
	go func() {
		w.Write(payload[:1000])
		w.Write(payload[1000:])
		w.Close()
	}()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %d bytes, want %d", len(got), len(payload))
	}
	r.Close()
	settleGoroutines(t, before)
}

// chunkBytes encodes one stripe chunk as a lane carries it.
func chunkBytes(seq uint64, data []byte) []byte {
	b := binary.BigEndian.AppendUint64(nil, seq)
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	return append(b, data...)
}

func concat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func eofBytes(seq uint64) []byte {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, seq), chunkEOF)
}

// scriptedLane is a lane connection that plays back fixed bytes and then
// reports a clean close.
type scriptedLane struct{ r *bytes.Reader }

func (s scriptedLane) Read(p []byte) (int, error)  { return s.r.Read(p) }
func (s scriptedLane) Write(p []byte) (int, error) { return len(p), nil }
func (s scriptedLane) Close() error                { return nil }

func scriptedStripe(t testing.TB, lanes ...[]byte) *Stripe {
	t.Helper()
	conns := make([]io.ReadWriteCloser, len(lanes))
	for i, b := range lanes {
		conns[i] = scriptedLane{bytes.NewReader(b)}
	}
	s, err := NewStripe(conns, 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStripeTornStreamIsNotCleanEOF(t *testing.T) {
	cases := []struct {
		name  string
		lanes [][]byte
		want  string // bytes delivered before the error
	}{
		{"lane closes mid-header", [][]byte{
			concat(chunkBytes(0, []byte("ab")), chunkBytes(1, nil)[:5]),
		}, "ab"},
		{"lane closes mid-body", [][]byte{
			chunkBytes(0, []byte("abcdef"))[:chunkHeaderSize+2],
		}, ""},
		{"header promises a body that never starts", [][]byte{
			chunkBytes(0, []byte("abcdef"))[:chunkHeaderSize],
		}, ""},
		{"sequence gap at end of stream", [][]byte{
			concat(chunkBytes(0, []byte("ab")), chunkBytes(2, []byte("ef"))),
			nil, // the lane that carried chunk 1 died before sending it
		}, "ab"},
		{"markers promise more chunks than arrived", [][]byte{
			concat(chunkBytes(0, []byte("ab")), eofBytes(3)),
			eofBytes(3),
		}, "ab"},
		{"marker mid-stream", [][]byte{
			concat(chunkBytes(0, []byte("ab")), eofBytes(1)),
			concat(chunkBytes(1, []byte("cd")), eofBytes(1)),
		}, "abcd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := scriptedStripe(t, tc.lanes...)
			got, err := io.ReadAll(s)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
			}
			if string(got) != tc.want {
				t.Fatalf("delivered %q before the error, want %q", got, tc.want)
			}
			// The error is sticky.
			if _, err := s.Read(make([]byte, 1)); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("second read err = %v", err)
			}
		})
	}
}

func TestStripeRejectsHostileSequences(t *testing.T) {
	huge := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, 0), maxStripeChunk+1)
	cases := map[string][][]byte{
		"oversized chunk":     {huge},
		"empty chunk":         {chunkBytes(0, nil)},
		"duplicate on a lane": {concat(chunkBytes(0, []byte("a")), chunkBytes(0, []byte("b")))},
		"duplicate across lanes": {
			concat(chunkBytes(1, []byte("a"))),
			concat(chunkBytes(1, []byte("b"))),
		},
		"far future": {chunkBytes(1<<40, []byte("a"))},
		"window full behind a dead lane": {
			concat(chunkBytes(0, []byte("a")), chunkBytes(2, []byte("c")), chunkBytes(4, []byte("e")),
				chunkBytes(6, []byte("g")), chunkBytes(8, []byte("i")), chunkBytes(10, []byte("k"))),
			chunkBytes(1, []byte("b")), // then dies: chunk 3 never comes while lane 0 keeps sending
		},
		"behind the stream": {concat(chunkBytes(0, []byte("a")), chunkBytes(1, []byte("b"))), chunkBytes(0, []byte("c"))},
	}
	for name, lanes := range cases {
		t.Run(name, func(t *testing.T) {
			s := scriptedStripe(t, lanes...)
			_, err := io.ReadAll(s)
			if err == nil {
				t.Fatal("hostile stream read as a clean EOF")
			}
		})
	}
}

// A truncated striped stream surfaces through the framing layer as an error,
// not as the end of the stream.
func TestConnOverTornStripeReportsTruncation(t *testing.T) {
	var frame bytes.Buffer
	if err := NewConn(&frame).SendLight(sampleLight()); err != nil {
		t.Fatal(err)
	}
	whole := frame.Bytes()
	s := scriptedStripe(t, chunkBytes(0, whole)[:chunkHeaderSize+len(whole)-3])
	_, err := NewConn(s).ReadMessage()
	if err == nil || err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a wrapped io.ErrUnexpectedEOF", err)
	}
}

// Steady state moves chunks without allocating: the writer sends slices of
// the caller's buffer, the reader recycles its lane buffers.
func TestStripeSteadyStateAllocatesNothing(t *testing.T) {
	w, r := stripedPair(t, 2)
	defer w.Close()
	defer r.Close()
	src := make([]byte, 1<<20) // 16 chunks
	dst := make([]byte, len(src))
	for i := range src {
		src[i] = byte(i * 31)
	}
	roundTrip := func() {
		done := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(r, dst)
			done <- err
		}()
		if _, err := w.Write(src); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	roundTrip() // warm-up: lane buffers, poller state
	if !bytes.Equal(src, dst) {
		t.Fatal("stripe corrupted the stream")
	}
	// The harness itself costs a channel, a goroutine and a closure per run;
	// sixteen chunks must add nothing on top.
	const harness = 4
	if allocs := testing.AllocsPerRun(20, roundTrip); allocs > harness {
		t.Fatalf("%.1f allocations per 16-chunk round trip, want <= %d (0 per chunk)", allocs, harness)
	}
}

// FuzzStripeReassembly feeds two lanes arbitrary bytes. Whatever they carry,
// Read must terminate with data or an error — never panic, never hand out
// more bytes than the lanes supplied, never buffer beyond the window.
func FuzzStripeReassembly(f *testing.F) {
	f.Add(concat(chunkBytes(0, []byte("abcd")), chunkBytes(2, []byte("ij")), eofBytes(3)),
		concat(chunkBytes(1, []byte("efgh")), eofBytes(3)))
	f.Add(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, 0), 0xFFFFFFF0), []byte{})
	f.Add(concat(chunkBytes(0, []byte("a")), chunkBytes(0, []byte("b"))), chunkBytes(1<<50, []byte("z")))
	f.Add(chunkBytes(0, []byte("abcdef"))[:chunkHeaderSize+3], chunkBytes(1, nil)[:7])
	f.Add(concat(eofBytes(0), chunkBytes(0, []byte("late"))), chunkBytes(1, []byte("x")))
	f.Fuzz(func(t *testing.T, lane0, lane1 []byte) {
		s := scriptedStripe(t, lane0, lane1)
		var total int
		buf := make([]byte, 64)
		for {
			n, err := s.Read(buf)
			total += n
			buffered := 0
			for _, l := range s.lanes {
				buffered += l.held
			}
			if buffered > len(s.window) {
				t.Fatalf("%d chunks buffered, window is %d", buffered, len(s.window))
			}
			if err != nil {
				break
			}
		}
		if total > len(lane0)+len(lane1) {
			t.Fatalf("delivered %d bytes from %d bytes of lane input", total, len(lane0)+len(lane1))
		}
	})
}
