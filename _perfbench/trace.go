package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// request (serve-mix) or one MD step share Req; Parent links a span to
// the span that caused it (0 = root).
type Span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Req    string             `json:"req,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
	next  int64
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Open is an in-flight span; the zero Open (from a nil Tracer) is dead.
type Open struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	req    string
	start  time.Time
}

// Start opens a span named name under parent.
func (t *Tracer) Start(name, req string, parent int64) Open {
	if t == nil {
		return Open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return Open{t: t, id: id, parent: parent, name: name, req: req, start: time.Now()}
}

// End closes the span with optional attributes.
func (o Open) End(attrs map[string]float64) {
	if o.t == nil {
		return
	}
	end := time.Now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, Span{
		ID: o.id, Parent: o.parent, Name: o.name, Req: o.req,
		Start: int64(o.start.Sub(o.t.t0)), End: int64(end.Sub(o.t.t0)), Attrs: attrs,
	})
	o.t.mu.Unlock()
}

// add records a span whose interval was timed elsewhere, as offsets
// from base, and returns its ID (0 when t is nil).
func (t *Tracer) add(name, req string, parent int64, base time.Time, from, to time.Duration, attrs map[string]float64) int64 {
	if t == nil {
		return 0
	}
	off := base.Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, Span{ID: t.next, Parent: parent, Name: name, Req: req,
		Start: int64(off + from), End: int64(off + to), Attrs: attrs})
	return t.next
}

// Spans returns a copy of the recorded spans in start order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// SelfStat sums the spans of one name: total duration, and self time —
// each span's duration minus the part of its interval its children
// cover.
type SelfStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func selfTimes(spans []Span) []SelfStat {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*SelfStat{}
	var names []string
	for _, s := range spans {
		st, ok := byName[s.Name]
		if !ok {
			st = &SelfStat{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	sort.Strings(names)
	out := make([]SelfStat, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(p Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Context  runContext         `json:"context"`
	Layers   map[string]float64 `json:"per_layer"`
	Notes    map[string]string  `json:"notes,omitempty"`
	Self     []SelfStat         `json:"self_time"`
	Spans    []Span             `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", tf.Workload, tf.Seed))
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

func printSelfTimes(w io.Writer, st []SelfStat) {
	fmt.Fprintf(w, "%-24s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range st {
		fmt.Fprintf(w, "%-24s %7d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
}
