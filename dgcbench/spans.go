package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one GC round or one remote
// call share a group id; parent is the index of the enclosing span (-1 for a
// root).
type span struct {
	name       string
	group      uint64
	parent     int
	start, end int64 // ns since the tracer started
}

// tracer keeps the spans of a traced run in memory until the run ends. A nil
// *tracer records nothing, so untraced runs share the workload code and pay
// only a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, group uint64, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, group: group, parent: parent, start: now, end: -1})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// endAt closes span i at a time observed elsewhere, such as inside a
// callback on another goroutine.
func (t *tracer) endAt(i int, at time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].end = int64(at.Sub(t.t0))
	t.mu.Unlock()
}

// layerTime is the summed self time and count of one span name.
type layerTime struct {
	self  time.Duration
	total time.Duration
	count int
}

// layers sums self and total time per span name. Open spans are ignored.
func (t *tracer) layers() map[string]layerTime {
	out := make(map[string]layerTime)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		l := out[s.name]
		l.self += time.Duration(selfTime(s, children[i]))
		l.total += time.Duration(s.end - s.start)
		l.count++
		out[s.name] = l
	}
	return out
}

// selfTime is the span's duration minus the part of its interval that its
// children cover. Children may overlap each other (concurrent handlers) or
// run past the parent, so it subtracts the union of their intervals clipped
// to the parent, not their summed durations.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			covered += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		covered += curB - curA
	}
	return s.end - s.start - covered
}

// write dumps the spans as gzipped JSON lines, one span per line:
// {"i":index,"name":...,"group":...,"parent":...,"start_ns":...,"end_ns":...}.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(bw, "{\"i\":%d,\"name\":%q,\"group\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.name, s.group, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
