package netsim

import (
	"io"
	"net"
	"sync"
	"time"
)

// Shaper is a token-bucket rate limiter used to make real loopback sockets
// behave like the paper's WAN links. The live examples run the full Visapult
// stack (DPSS servers, back end, viewer) over real TCP connections, with each
// connection wrapped in a Shaper configured from a Link, so that the
// bandwidth-bound behaviour of the field tests shows up on a laptop.
//
// A single Shaper may be shared by several connections, which models several
// striped sockets contending for one WAN path.
type Shaper struct {
	mu        sync.Mutex
	rate      float64 // bytes per second
	burst     float64 // bucket size in bytes
	tokens    float64
	last      time.Time
	sleepFunc func(time.Duration) // test hook; nil means time.Sleep
}

// NewShaper creates a shaper limiting throughput to rateBytesPerSec with the
// given burst size in bytes. A non-positive rate means unlimited. A
// non-positive burst defaults to 64 KiB.
func NewShaper(rateBytesPerSec float64, burst float64) *Shaper {
	if burst <= 0 {
		burst = 64 << 10
	}
	return &Shaper{rate: rateBytesPerSec, burst: burst, tokens: burst, last: time.Now()}
}

// ShaperForLink creates a shaper whose rate matches the link bandwidth.
func ShaperForLink(l Link) *Shaper {
	return NewShaper(l.Bandwidth/8, 256<<10)
}

// Rate returns the configured rate in bytes per second (0 means unlimited).
func (s *Shaper) Rate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rate
}

// SetRate changes the rate at runtime; non-positive means unlimited.
func (s *Shaper) SetRate(rateBytesPerSec float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rate = rateBytesPerSec
}

// Wait blocks until n bytes worth of tokens are available and consumes them.
// It returns immediately when the shaper is unlimited.
func (s *Shaper) Wait(n int) {
	for {
		d := s.reserve(n)
		if d <= 0 {
			return
		}
		if s.sleepFunc != nil {
			s.sleepFunc(d)
		} else {
			time.Sleep(d)
		}
	}
}

// reserve attempts to take n tokens; it returns 0 on success or the duration
// to wait before trying again.
func (s *Shaper) reserve(n int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rate <= 0 {
		return 0
	}
	now := time.Now()
	elapsed := now.Sub(s.last).Seconds()
	s.last = now
	s.tokens += elapsed * s.rate
	if s.tokens > s.burst {
		s.tokens = s.burst
	}
	need := float64(n)
	if need > s.burst {
		// Requests larger than the bucket drain it and pay for the remainder
		// in waiting time, so huge writes are still correctly paced.
		need = s.burst
	}
	if s.tokens >= need {
		s.tokens -= float64(n)
		return 0
	}
	deficit := need - s.tokens
	wait := time.Duration(deficit / s.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait
}

// ShapedConn wraps a net.Conn so that writes are paced by a Shaper. Reads
// are not shaped (the peer's writes already are).
type ShapedConn struct {
	net.Conn
	shaper *Shaper
}

// NewShapedConn wraps conn with the given shaper. A nil shaper leaves the
// write path unshaped.
func NewShapedConn(conn net.Conn, shaper *Shaper) *ShapedConn {
	return &ShapedConn{Conn: conn, shaper: shaper}
}

// Write paces p through the shaper in MTU-sized chunks.
func (c *ShapedConn) Write(p []byte) (int, error) {
	if c.shaper == nil {
		return c.Conn.Write(p)
	}
	const chunk = 32 << 10
	written := 0
	for written < len(p) {
		end := written + chunk
		if end > len(p) {
			end = len(p)
		}
		c.shaper.Wait(end - written)
		n, err := c.Conn.Write(p[written:end])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ShapedWriter wraps an io.Writer with a Shaper, for shaping non-socket
// destinations (pipes, buffers) in tests.
type ShapedWriter struct {
	w      io.Writer
	shaper *Shaper
}

// NewShapedWriter wraps w so that writes are paced by shaper.
func NewShapedWriter(w io.Writer, shaper *Shaper) *ShapedWriter {
	return &ShapedWriter{w: w, shaper: shaper}
}

// Write paces p through the shaper before writing it to the underlying
// writer.
func (w *ShapedWriter) Write(p []byte) (int, error) {
	if w.shaper != nil {
		w.shaper.Wait(len(p))
	}
	return w.w.Write(p)
}
