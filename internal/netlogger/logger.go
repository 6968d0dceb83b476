package netlogger

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Clock supplies timestamps for emitted events. The default is time.Now;
// simulated experiments install a virtual clock so that event timestamps are
// expressed in virtual seconds from the start of a campaign, exactly like the
// elapsed-time axis in the paper's NLV figures.
type Clock func() time.Time

// Logger emits NetLogger events on behalf of one component (one back-end PE,
// the viewer master, a DPSS server, ...). It always keeps an in-memory copy
// of what it emitted and can additionally stream ULM lines to any number of
// sinks (files, TCP connections to a netlogd daemon).
//
// Logger is safe for concurrent use.
type Logger struct {
	mu     sync.Mutex
	host   string
	prog   string
	clock  Clock
	sinks  []io.Writer
	events []Event
	level  int
}

// Option configures a Logger.
type Option func(*Logger)

// WithClock installs a custom timestamp source.
func WithClock(c Clock) Option {
	return func(l *Logger) {
		if c != nil {
			l.clock = c
		}
	}
}

// WithSink adds a destination that receives one ULM line per event.
func WithSink(w io.Writer) Option {
	return func(l *Logger) {
		if w != nil {
			l.sinks = append(l.sinks, w)
		}
	}
}

// WithLevel sets the LVL value stamped on events (default 1).
func WithLevel(level int) Option {
	return func(l *Logger) { l.level = level }
}

// New creates a Logger for the given host and program name.
func New(host, prog string, opts ...Option) *Logger {
	l := &Logger{host: host, prog: prog, clock: time.Now, level: 1}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Hostname returns the machine's host name, or def when it cannot be
// determined: the host a component running in its own process logs under.
func Hostname(def string) string {
	h, err := os.Hostname()
	if err != nil || h == "" {
		return def
	}
	return h
}

// Host returns the host name stamped on events.
func (l *Logger) Host() string { return l.host }

// Prog returns the program name stamped on events.
func (l *Logger) Prog() string { return l.prog }

// AddSink attaches an additional sink at runtime.
func (l *Logger) AddSink(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w != nil {
		l.sinks = append(l.sinks, w)
	}
}

// Log emits an event with the given tag and fields and returns it.
func (l *Logger) Log(tag string, fields ...Field) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Event{
		Time:   l.clock(),
		Host:   l.host,
		Prog:   l.prog,
		Tag:    tag,
		Level:  l.level,
		Fields: make(map[string]string, len(fields)),
	}
	for _, f := range fields {
		e.Fields[f.Key] = f.Value
	}
	l.events = append(l.events, e)
	line := e.ULM() + "\n"
	for _, s := range l.sinks {
		io.WriteString(s, line) //nolint:errcheck // best-effort monitoring path
	}
	return e
}

// LogAt emits an event with an explicit timestamp, bypassing the clock. The
// simulated campaigns use this to stamp events with virtual time.
func (l *Logger) LogAt(ts time.Time, tag string, fields ...Field) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Event{
		Time:   ts,
		Host:   l.host,
		Prog:   l.prog,
		Tag:    tag,
		Level:  l.level,
		Fields: make(map[string]string, len(fields)),
	}
	for _, f := range fields {
		e.Fields[f.Key] = f.Value
	}
	l.events = append(l.events, e)
	line := e.ULM() + "\n"
	for _, s := range l.sinks {
		io.WriteString(s, line) //nolint:errcheck
	}
	return e
}

// Events returns a copy of every event emitted so far.
func (l *Logger) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Len returns the number of events emitted so far.
func (l *Logger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Reset discards the in-memory event history (sinks are unaffected).
func (l *Logger) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = nil
}

// Collector merges events from many Loggers (and raw event slices) into one
// ordered log, mirroring the single netlogd event file the original toolkit
// accumulates for a distributed run.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Add appends events to the collector.
func (c *Collector) Add(events ...Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, events...)
}

// AddLogger appends the full history of a Logger.
func (c *Collector) AddLogger(l *Logger) { c.Add(l.Events()...) }

// Events returns all collected events sorted by timestamp.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	SortByTime(out)
	return out
}

// Len returns the number of collected events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// WriteULM writes the collected events, time-sorted, one ULM line per event.
func (c *Collector) WriteULM(w io.Writer) error {
	for _, e := range c.Events() {
		if _, err := fmt.Fprintln(w, e.ULM()); err != nil {
			return err
		}
	}
	return nil
}

// sinkWriteTimeout bounds one buffered write+flush to a netlogd daemon: a
// wedged daemon breaks the sink instead of stalling the instrumented
// application at its next Log call.
const sinkWriteTimeout = 10 * time.Second

// DialSink connects to a netlogd daemon and returns a writer suitable for
// WithSink/AddSink. The returned writer buffers lines and is safe for
// concurrent use by a single Logger (which serializes writes itself).
func DialSink(addr string) (io.WriteCloser, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netlogger: dial %s: %w", addr, err)
	}
	conn.SetWriteDeadline(time.Now().Add(sinkWriteTimeout)) //nolint:errcheck // re-armed per Write
	return &connSink{conn: conn, bw: bufio.NewWriter(conn)}, nil
}

type connSink struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
}

func (s *connSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn.SetWriteDeadline(time.Now().Add(sinkWriteTimeout)) //nolint:errcheck // a dead conn surfaces on the flush below
	n, err := s.bw.Write(p)
	if err != nil {
		return n, err
	}
	return n, s.bw.Flush()
}

func (s *connSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bw.Flush() //nolint:errcheck
	return s.conn.Close()
}
