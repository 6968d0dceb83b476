package netlogger

import (
	"fmt"
	"sort"
	"time"

	"visapult/internal/stats"
)

// Phase is one matched START/END interval extracted from an event log: for
// example, BE_LOAD_START to BE_LOAD_END for frame 3 on PE 1.
type Phase struct {
	StartTag string
	EndTag   string
	Host     string
	Prog     string
	PE       int
	Frame    int
	Start    time.Time
	End      time.Time
	Bytes    int64 // from the END event's BYTES field, if present
}

// Duration returns the phase's elapsed time.
func (p Phase) Duration() time.Duration { return p.End.Sub(p.Start) }

// Mbps returns the phase's throughput if a byte count is attached, else 0.
func (p Phase) Mbps() float64 { return stats.Mbps(p.Bytes, p.Duration()) }

// Analysis provides queries over a time-sorted NetLogger event log. It is the
// programmatic equivalent of reading an NLV plot.
type Analysis struct {
	events []Event
	origin time.Time
}

// Analyze builds an Analysis over a copy of events, sorted by time. The
// origin (time zero of the run) is the earliest event timestamp.
func Analyze(events []Event) *Analysis {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	SortByTime(sorted)
	a := &Analysis{events: sorted}
	if len(sorted) > 0 {
		a.origin = sorted[0].Time
	}
	return a
}

// Events returns the sorted events underlying the analysis.
func (a *Analysis) Events() []Event { return a.events }

// Origin returns the timestamp treated as elapsed-time zero.
func (a *Analysis) Origin() time.Time { return a.origin }

// Elapsed converts an absolute event time to elapsed time from the origin.
func (a *Analysis) Elapsed(t time.Time) time.Duration { return t.Sub(a.origin) }

// Span returns the total elapsed time covered by the log.
func (a *Analysis) Span() time.Duration {
	if len(a.events) == 0 {
		return 0
	}
	return a.events[len(a.events)-1].Time.Sub(a.origin)
}

// Tags returns the distinct tags present, in first-appearance order.
func (a *Analysis) Tags() []string {
	seen := make(map[string]bool)
	var tags []string
	for _, e := range a.events {
		if !seen[e.Tag] {
			seen[e.Tag] = true
			tags = append(tags, e.Tag)
		}
	}
	return tags
}

// FilterTag returns the events carrying the given tag.
func (a *Analysis) FilterTag(tag string) []Event {
	var out []Event
	for _, e := range a.events {
		if e.Tag == tag {
			out = append(out, e)
		}
	}
	return out
}

// FilterProg returns the events emitted by the given program.
func (a *Analysis) FilterProg(prog string) []Event {
	var out []Event
	for _, e := range a.events {
		if e.Prog == prog {
			out = append(out, e)
		}
	}
	return out
}

// streamKey identifies one lifeline: a (host, prog, PE) triple, which is how
// the paper's plots separate backend-worker / backend-master / viewer traces.
type streamKey struct {
	host string
	prog string
	pe   int
}

// Phases pairs startTag/endTag events into phases. Pairing is done per
// (host, prog, PE, frame): each start is matched with the first later end
// carrying the same identity. Unmatched starts are dropped.
func (a *Analysis) Phases(startTag, endTag string) []Phase {
	type pending struct {
		ev Event
	}
	open := make(map[string]pending)
	var phases []Phase
	keyOf := func(e Event) string {
		return fmt.Sprintf("%s|%s|%d|%d", e.Host, e.Prog, e.PE(), e.Frame())
	}
	for _, e := range a.events {
		switch e.Tag {
		case startTag:
			open[keyOf(e)] = pending{ev: e}
		case endTag:
			k := keyOf(e)
			st, ok := open[k]
			if !ok {
				continue
			}
			delete(open, k)
			phases = append(phases, Phase{
				StartTag: startTag,
				EndTag:   endTag,
				Host:     e.Host,
				Prog:     e.Prog,
				PE:       e.PE(),
				Frame:    e.Frame(),
				Start:    st.ev.Time,
				End:      e.Time,
				Bytes:    e.Bytes(),
			})
		}
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i].Start.Before(phases[j].Start) })
	return phases
}

// PhaseDurations returns just the durations of the matched phases.
func (a *Analysis) PhaseDurations(startTag, endTag string) []time.Duration {
	phases := a.Phases(startTag, endTag)
	out := make([]time.Duration, len(phases))
	for i, p := range phases {
		out[i] = p.Duration()
	}
	return out
}

// PhaseSummary describes one phase type across a whole run.
type PhaseSummary struct {
	StartTag string
	EndTag   string
	Count    int
	Total    time.Duration
	Mean     time.Duration
	Min      time.Duration
	Max      time.Duration
	// CoV is the coefficient of variation of the phase durations; the paper
	// uses load-time variability as the signature of CPU contention on
	// cluster nodes.
	CoV float64
	// AggregateMbps is total bytes moved over total phase time, when the END
	// events carry BYTES fields.
	AggregateMbps float64
}

// SummarizePhase computes a PhaseSummary for the given tag pair.
func (a *Analysis) SummarizePhase(startTag, endTag string) PhaseSummary {
	phases := a.Phases(startTag, endTag)
	s := PhaseSummary{StartTag: startTag, EndTag: endTag, Count: len(phases)}
	if len(phases) == 0 {
		return s
	}
	var totalBytes int64
	secs := make([]float64, len(phases))
	s.Min = phases[0].Duration()
	for i, p := range phases {
		d := p.Duration()
		s.Total += d
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
		secs[i] = d.Seconds()
		totalBytes += p.Bytes
	}
	s.Mean = s.Total / time.Duration(len(phases))
	s.CoV = stats.CoefficientOfVariation(secs)
	if totalBytes > 0 && s.Total > 0 {
		s.AggregateMbps = stats.Mbps(totalBytes, s.Total)
	}
	return s
}

// FrameSpan returns, per frame number, the elapsed time between the first
// startTag event and the last endTag event for that frame across all PEs —
// the per-timestep wall-clock the paper's figures show.
func (a *Analysis) FrameSpan(startTag, endTag string) map[int]time.Duration {
	firstStart := make(map[int]time.Time)
	lastEnd := make(map[int]time.Time)
	for _, e := range a.events {
		f := e.Frame()
		if f < 0 {
			continue
		}
		switch e.Tag {
		case startTag:
			if t, ok := firstStart[f]; !ok || e.Time.Before(t) {
				firstStart[f] = e.Time
			}
		case endTag:
			if t, ok := lastEnd[f]; !ok || e.Time.After(t) {
				lastEnd[f] = e.Time
			}
		}
	}
	out := make(map[int]time.Duration)
	for f, st := range firstStart {
		if en, ok := lastEnd[f]; ok && !en.Before(st) {
			out[f] = en.Sub(st)
		}
	}
	return out
}

// OverlapFraction measures how much of the log's total span had both an
// open (loadStart..loadEnd) phase and an open (renderStart..renderEnd) phase
// in flight simultaneously, as a fraction of the span. A serial back end
// yields ~0; a fully overlapped back end approaches min(L,R)/max span.
func (a *Analysis) OverlapFraction(loadStart, loadEnd, renderStart, renderEnd string) float64 {
	span := a.Span()
	if span <= 0 {
		return 0
	}
	loads := a.Phases(loadStart, loadEnd)
	renders := a.Phases(renderStart, renderEnd)
	var overlap time.Duration
	for _, l := range loads {
		for _, r := range renders {
			s := l.Start
			if r.Start.After(s) {
				s = r.Start
			}
			e := l.End
			if r.End.Before(e) {
				e = r.End
			}
			if e.After(s) {
				overlap += e.Sub(s)
			}
		}
	}
	frac := overlap.Seconds() / span.Seconds()
	if frac > 1 {
		frac = 1
	}
	return frac
}

// Lifeline is a single trace in an NLV plot: one (host, prog, PE) stream with
// its ordered events.
type Lifeline struct {
	Host   string
	Prog   string
	PE     int
	Events []Event
}

// Lifelines groups events into per-stream lifelines ordered by prog, host,
// then PE, mirroring the legend grouping in the paper's figures
// (backend-worker, backend-master, viewer-master, viewer-worker).
func (a *Analysis) Lifelines() []Lifeline {
	byKey := make(map[streamKey][]Event)
	var keys []streamKey
	for _, e := range a.events {
		k := streamKey{host: e.Host, prog: e.Prog, pe: e.PE()}
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].prog != keys[j].prog {
			return keys[i].prog < keys[j].prog
		}
		if keys[i].host != keys[j].host {
			return keys[i].host < keys[j].host
		}
		return keys[i].pe < keys[j].pe
	})
	out := make([]Lifeline, 0, len(keys))
	for _, k := range keys {
		out = append(out, Lifeline{Host: k.host, Prog: k.prog, PE: k.pe, Events: byKey[k]})
	}
	return out
}
