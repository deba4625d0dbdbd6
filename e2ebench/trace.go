package main

// The benchmark's own tracing. Spans wrap the calls the benchmark makes
// into each layer's public entry point (plus, through tracingTransport,
// every HTTP exchange those calls make on the benchmark's connections), so a
// change can be credited to one layer. Spans stay in memory and are written
// out when the run ends. A nil *tracer records nothing: that is the untraced
// run, whose end-to-end figures carry no tracing cost.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Trace  uint64    `json:"trace"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Alloc is the heap allocated process-wide while the span was open, or
	// -1 where concurrent spans make the figure meaningless.
	Alloc int64 `json:"alloc_bytes"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

type tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

type spanKey struct{}

// liveSpan is an open span; a nil *liveSpan (tracing off) ignores end.
type liveSpan struct {
	tr     *tracer
	s      span
	alloc0 uint64
	once   sync.Once
}

// start opens a span under the one ctx carries (a new trace when none) and
// returns ctx carrying the new span. withAlloc charges the span with the
// process-wide heap allocation while it is open.
func (t *tracer) start(ctx context.Context, name string, withAlloc bool) (context.Context, *liveSpan) {
	if t == nil {
		return ctx, nil
	}
	id := t.ids.Add(1)
	ls := &liveSpan{tr: t, s: span{ID: id, Trace: id, Name: name, Alloc: -1}}
	if parent, ok := ctx.Value(spanKey{}).(*liveSpan); ok && parent != nil {
		ls.s.Parent, ls.s.Trace = parent.s.ID, parent.s.Trace
	}
	if withAlloc {
		ls.alloc0 = allocatedBytes()
		ls.s.Alloc = 0
	}
	ls.s.Start = time.Now()
	return context.WithValue(ctx, spanKey{}, ls), ls
}

func (ls *liveSpan) end() {
	if ls == nil {
		return
	}
	ls.once.Do(func() {
		ls.s.End = time.Now()
		if ls.s.Alloc == 0 {
			ls.s.Alloc = int64(allocatedBytes() - ls.alloc0)
		}
		ls.tr.record(ls.s)
	})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// measure runs fn as one call into a layer, inside a span named name when
// tracing is on; the span is charged with the heap allocated process-wide
// during the call.
func measure(ctx context.Context, tr *tracer, name string, fn func(context.Context) error) error {
	ctx, sp := tr.start(ctx, name, true)
	err := fn(ctx)
	sp.end()
	return err
}

// tracingTransport records one span per HTTP exchange made under a traced
// context, from request start until the response body is closed.
type tracingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if _, ok := req.Context().Value(spanKey{}).(*liveSpan); !ok || t.tr == nil {
		return t.base.RoundTrip(req)
	}
	_, sp := t.tr.start(req.Context(), "http."+req.Method+" "+routeOf(req.URL.Path), false)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// routeOf folds a request path to its route: the first two segments, so
// /v1/snapshots/snap-00000003 and /v1/snapshots/snap-00000004 aggregate.
func routeOf(path string) string {
	parts := strings.SplitN(strings.TrimPrefix(path, "/"), "/", 3)
	return "/" + strings.Join(parts[:min(len(parts), 2)], "/")
}

type spanBody struct {
	io.ReadCloser
	sp *liveSpan
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.sp.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.sp.end()
	return b.ReadCloser.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (concurrent pushes to replicas) and may outlive their parent; only the
// union of their intervals, clipped to the parent, is subtracted.
func selfTimes(spans []span) map[uint64]time.Duration {
	type iv struct{ a, b time.Time }
	kids := map[uint64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		var covered time.Duration
		ivs := kids[s.ID]
		slices.SortFunc(ivs, func(x, y iv) int { return x.a.Compare(y.a) })
		var cur iv
		open := false
		for _, c := range ivs {
			if c.a.Before(s.Start) {
				c.a = s.Start
			}
			if c.b.After(s.End) {
				c.b = s.End
			}
			if !c.b.After(c.a) {
				continue
			}
			switch {
			case !open:
				cur, open = c, true
			case !c.a.After(cur.b):
				if c.b.After(cur.b) {
					cur.b = c.b
				}
			default:
				covered += cur.b.Sub(cur.a)
				cur = c
			}
		}
		if open {
			covered += cur.b.Sub(cur.a)
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// layerTotals sums the spans of one name.
type layerTotals struct {
	count int
	total time.Duration
	alloc int64
}

func aggregate(spans []span) map[string]*layerTotals {
	out := map[string]*layerTotals{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		if s.Alloc > 0 {
			lt.alloc += s.Alloc
		}
	}
	return out
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
