package netsim

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"visapult/internal/stats"
)

func TestShaperUnlimited(t *testing.T) {
	s := NewShaper(0, 0)
	start := time.Now()
	for i := 0; i < 100; i++ {
		s.Wait(1 << 20)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("unlimited shaper should not block")
	}
	if s.Rate() != 0 {
		t.Errorf("rate = %v", s.Rate())
	}
}

func TestShaperApproximatesRate(t *testing.T) {
	// 10 MB/s shaper, move 2 MB => should take roughly 0.2s (allow slack for
	// the initial burst and scheduler noise).
	s := NewShaper(10*stats.MB, 64<<10)
	start := time.Now()
	total := 0
	for total < 2*stats.MB {
		s.Wait(32 << 10)
		total += 32 << 10
	}
	elapsed := time.Since(start)
	if elapsed < 100*time.Millisecond || elapsed > 600*time.Millisecond {
		t.Errorf("2MB at 10MB/s took %v, want ~200ms", elapsed)
	}
}

func TestShaperSetRate(t *testing.T) {
	s := NewShaper(1*stats.MB, 32<<10)
	s.SetRate(0)
	start := time.Now()
	s.Wait(10 * stats.MB)
	if time.Since(start) > 50*time.Millisecond {
		t.Error("rate change to unlimited should take effect")
	}
	s.SetRate(5 * stats.MB)
	if s.Rate() != 5*stats.MB {
		t.Errorf("rate = %v", s.Rate())
	}
}

func TestShaperForLink(t *testing.T) {
	s := ShaperForLink(ESnet)
	wantBytesPerSec := ESnet.Bandwidth / 8
	if s.Rate() != wantBytesPerSec {
		t.Errorf("rate = %v, want %v", s.Rate(), wantBytesPerSec)
	}
}

func TestShaperSharedAcrossWriters(t *testing.T) {
	// Two writers sharing one shaper should jointly respect the rate.
	s := NewShaper(20*stats.MB, 64<<10)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			moved := 0
			for moved < 2*stats.MB {
				s.Wait(64 << 10)
				moved += 64 << 10
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 4 MB total at 20 MB/s is 200 ms.
	if elapsed < 100*time.Millisecond || elapsed > 700*time.Millisecond {
		t.Errorf("4MB at 20MB/s (2 writers) took %v", elapsed)
	}
}

func TestShapedWriterDeliversAllBytes(t *testing.T) {
	var buf bytes.Buffer
	w := NewShapedWriter(&buf, NewShaper(50*stats.MB, 64<<10))
	payload := bytes.Repeat([]byte{0xAB}, 256<<10)
	n, err := w.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("write = %d, %v", n, err)
	}
	if !bytes.Equal(buf.Bytes(), payload) {
		t.Error("payload corrupted by shaper")
	}
}

func TestShapedWriterNilShaper(t *testing.T) {
	var buf bytes.Buffer
	w := NewShapedWriter(&buf, nil)
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "hello" {
		t.Errorf("got %q", buf.String())
	}
}

func TestShapedConnEndToEnd(t *testing.T) {
	// Real loopback TCP connection, shaped to ~8 MB/s; move 1 MB and verify
	// both integrity and that the transfer is not instantaneous.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const payloadSize = 1 << 20
	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	errCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		defer conn.Close()
		shaped := NewShapedConn(conn, NewShaper(8*stats.MB, 128<<10))
		_, err = shaped.Write(payload)
		errCh <- err
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	got, err := io.ReadAll(io.LimitReader(conn, payloadSize))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if werr := <-errCh; werr != nil {
		t.Fatal(werr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted over shaped connection")
	}
	// 1 MB at 8 MB/s is 125 ms; accept a broad window but reject "instant".
	if elapsed < 50*time.Millisecond {
		t.Errorf("shaped transfer finished suspiciously fast: %v", elapsed)
	}
	rate := stats.MBps(payloadSize, elapsed)
	if rate > 24 {
		t.Errorf("achieved %v MB/s, want shaped to ~8 MB/s", rate)
	}
}

func TestShapedConnUnshapedPassthrough(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		shaped := NewShapedConn(conn, nil)
		shaped.Write([]byte("passthrough"))
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := io.ReadAll(io.LimitReader(conn, 11))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "passthrough" {
		t.Errorf("got %q", got)
	}
}
