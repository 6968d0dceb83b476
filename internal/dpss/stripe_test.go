package dpss

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// oddExtents cuts [0, size) into pieceLen-byte extents (the last one short),
// all scattering into one destination buffer. An odd pieceLen makes pieces
// straddle block boundaries.
func oddExtents(dst []byte, pieceLen int) []Extent {
	var exts []Extent
	for off := 0; off < len(dst); off += pieceLen {
		end := off + pieceLen
		if end > len(dst) {
			end = len(dst)
		}
		exts = append(exts, Extent{Off: int64(off), Len: end - off, Dst: dst[off:end]})
	}
	return exts
}

func patternData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i/251)
	}
	return data
}

// TestReadvScatterEndToEnd stages a multi-block dataset on a live cluster and
// reads it back through the vectored scatter path with extents that straddle
// block and server boundaries, pipelined over several stripes.
func TestReadvScatterEndToEnd(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{Servers: 3, DisksPerServer: 2})
	data := patternData(300*1024 + 17)
	client := c.NewClient(WithStripes(3))
	defer client.Close()
	if _, err := c.LoadBytes(client, "vec", data, 8<<10); err != nil {
		t.Fatal(err)
	}
	f, err := client.Open("vec")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f.ReadvScatter(context.Background(), oddExtents(got, 4093)); err != nil {
		t.Fatalf("ReadvScatter: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("vectored read returned different bytes")
	}

	// The stripe pool actually moved the bytes.
	stats := client.StripeStats()
	if len(stats) == 0 {
		t.Fatal("no stripe stats after a vectored read")
	}
	var total int64
	for _, st := range stats {
		total += st.Bytes
	}
	if total < int64(len(data)) {
		t.Fatalf("stripes carried %d bytes, want >= %d", total, len(data))
	}

	// A single-stripe client completes the same read.
	one := c.NewClient(WithStripes(1))
	defer one.Close()
	f1, err := one.Open("vec")
	if err != nil {
		t.Fatal(err)
	}
	got1 := make([]byte, len(data))
	if err := f1.ReadvScatter(context.Background(), oddExtents(got1, 8191)); err != nil {
		t.Fatalf("single-stripe ReadvScatter: %v", err)
	}
	if !bytes.Equal(got1, data) {
		t.Fatal("single-stripe vectored read returned different bytes")
	}
}

// v2BlockServer is a fake DPSS block server that answers msgReadv from its
// own disk with a sequenced msgOK2, holding each request for a while in its
// own goroutine so pipelined requests overlap. It records the peak number of
// requests outstanding at once — received and not yet answered — the lever
// the bounded-fan-out test asserts on. With unsequenced set it answers
// msgReadv with a plain msgError frame instead.
type v2BlockServer struct {
	l           net.Listener
	disk        *Disk
	hold        time.Duration
	unsequenced atomic.Bool

	mu          sync.Mutex
	outstanding int
	peak        int
	requests    int
}

func newV2BlockServer(t *testing.T, hold time.Duration) *v2BlockServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &v2BlockServer{l: l, disk: NewDisk(), hold: hold}
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

func (s *v2BlockServer) serve(conn net.Conn) {
	defer conn.Close()
	var wmu sync.Mutex // serializes reply frames on conn
	write := func(msgType byte, body []byte) {
		wmu.Lock()
		defer wmu.Unlock()
		writeFrame(conn, msgType, body) //nolint:errcheck // a dead conn fails the client's read
	}
	for {
		msgType, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		if msgType != msgReadv || s.unsequenced.Load() {
			write(msgError, []byte("dpss: unexpected message"))
			continue
		}
		s.mu.Lock()
		s.requests++
		s.outstanding++
		s.peak = max(s.peak, s.outstanding)
		s.mu.Unlock()
		go func() {
			respType, body := readvReply(payload, s.disk.ReadBlock)
			time.Sleep(s.hold)
			// Answered once the reply starts: the client frees the window
			// slot only after reading it, so a request sent in that slot
			// can never arrive before this decrement.
			s.mu.Lock()
			s.outstanding--
			s.mu.Unlock()
			write(respType, body)
		}()
	}
}

func (s *v2BlockServer) counts() (peak, requests int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak, s.requests
}

// v2File wires a File directly to a fake server (no master involved),
// pre-loading the fake's disk with the dataset's blocks.
func v2File(t *testing.T, srv *v2BlockServer, client *Client, name string, data []byte, blockSize int) *File {
	t.Helper()
	for b := 0; b*blockSize < len(data); b++ {
		end := min((b+1)*blockSize, len(data))
		srv.disk.WriteBlock(name, int64(b), data[b*blockSize:end])
	}
	return &File{client: client, info: DatasetInfo{
		Name: name, Size: int64(len(data)), BlockSize: blockSize,
		Servers: []string{srv.l.Addr().String()},
	}}
}

// TestReadAtContextBoundedFanout is the regression test for the old
// goroutine-per-block fan-out: a read that batches into more requests than
// the client's stripes x window must never have more than stripes x window
// of them outstanding at the server at once. The fake holds each request
// briefly so any unbounded fan-out would be caught red-handed.
func TestReadAtContextBoundedFanout(t *testing.T) {
	const (
		blockSize = 16 << 10
		blocks    = 64
		stripes   = 2
		window    = 1
	)
	srv := newV2BlockServer(t, 5*time.Millisecond)
	client := NewClient("127.0.0.1:1", WithStripes(stripes), WithStripeWindow(window))
	defer client.Close()
	data := patternData(blocks * blockSize)
	f := v2File(t, srv, client, "bounded", data, blockSize)

	got := make([]byte, len(data))
	n, err := f.ReadAtContext(context.Background(), got, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes, equal=%v", n, bytes.Equal(got[:n], data[:n]))
	}
	peak, requests := srv.counts()
	if requests <= stripes*window {
		t.Fatalf("read went out as %d requests; want more than %d for the window to bind", requests, stripes*window)
	}
	if peak > stripes*window {
		t.Fatalf("peak of %d requests outstanding, want <= %d (stripes x window)", peak, stripes*window)
	}
}

// TestUnsequencedReplyIsProtocolError pins the one-op contract from the
// client side: a reply to msgReadv that is not a sequenced msgOK2/msgError2
// fails the read with ErrProtocol and tears the stripe's connection down,
// and the next read re-dials and succeeds.
func TestUnsequencedReplyIsProtocolError(t *testing.T) {
	srv := newV2BlockServer(t, 0)
	srv.unsequenced.Store(true)
	client := NewClient("127.0.0.1:1", WithStripes(1))
	defer client.Close()
	data := patternData(8 << 10)
	f := v2File(t, srv, client, "unseq", data, 4<<10)

	got := make([]byte, len(data))
	if _, err := f.ReadAtContext(context.Background(), got, 0); !errors.Is(err, ErrProtocol) {
		t.Fatalf("read answered with a plain msgError: err = %v, want ErrProtocol", err)
	}
	stats := client.StripeStats()
	if len(stats) != 1 || stats[0].Failures != 1 || stats[0].Connected {
		t.Fatalf("stripe stats after the protocol error = %+v, want one dropped stripe with 1 failure", stats)
	}

	srv.unsequenced.Store(false)
	if _, err := f.ReadAtContext(context.Background(), got, 0); err != nil {
		t.Fatalf("read after the protocol error: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read after the protocol error returned different bytes")
	}
	if stats := client.StripeStats(); stats[0].Failures != 1 || !stats[0].Connected {
		t.Fatalf("stripe stats after the re-dial = %+v, want 1 failure and a live connection", stats[0])
	}
}

// TestReadvScatterSteadyStateAllocs pins the zero-copy promise: once the
// pools are warm, a vectored read's allocation count must not scale with the
// number of blocks it touches.
func TestReadvScatterSteadyStateAllocs(t *testing.T) {
	c := startTestCluster(t, ClusterConfig{Servers: 1, DisksPerServer: 2})
	const (
		blockSize = 4 << 10
		blocks    = 256
	)
	data := patternData(blocks * blockSize)
	client := c.NewClient(WithStripes(2))
	defer client.Close()
	if _, err := c.LoadBytes(client, "allocs", data, blockSize); err != nil {
		t.Fatal(err)
	}
	f, err := client.Open("allocs")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	exts := oddExtents(got, 4093)
	// Warm: connection dials, pool population.
	for i := 0; i < 3; i++ {
		if err := f.ReadvScatter(context.Background(), exts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := f.ReadvScatter(context.Background(), exts); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(got, data) {
		t.Fatal("steady-state vectored read returned different bytes")
	}
	// AllocsPerRun counts the whole process, and the in-process block server
	// legitimately copies each block off its disk (~3 allocs/block server
	// side). The regression this guards against — the old goroutine + frame
	// buffer + response copy per block on the CLIENT — would push this well
	// past the bound; the client scatter path itself is pinned at zero by
	// TestScatterExtentsZeroAlloc.
	if perBlock := allocs / blocks; perBlock >= 6 {
		t.Fatalf("%.1f allocs per vectored read (%.2f per block), want < 6 per block", allocs, perBlock)
	}
}

// TestScatterExtentsZeroAlloc pins the zero-copy delivery path: scattering a
// response body into caller destinations allocates nothing — bytes go from
// the reader straight into the destination slices.
func TestScatterExtentsZeroAlloc(t *testing.T) {
	body := patternData(64 << 10)
	dsts := make([][]byte, 0, 64)
	buf := make([]byte, len(body))
	for off := 0; off < len(buf); off += 1021 {
		end := off + 1021
		if end > len(buf) {
			end = len(buf)
		}
		dsts = append(dsts, buf[off:end])
	}
	r := bytes.NewReader(body)
	refresh := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		if err := scatterExtents(r, dsts, refresh); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scatterExtents allocated %.1f times per call, want 0", allocs)
	}
	if !bytes.Equal(buf, body) {
		t.Fatal("scatter produced different bytes")
	}
}
