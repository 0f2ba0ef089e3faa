package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one host-clock interval around a call into a layer. Spans of
// one request share req; parent is the index of the enclosing span.
type span struct {
	name       string
	req        int
	parent     int
	start, end int64 // ns since the log's origin
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing and reads no clock.
type spanLog struct {
	origin time.Time
	spans  []span
	stack  []int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (l *spanLog) begin(name string, req int) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	l.spans = append(l.spans, span{name: name, req: req, parent: parent,
		start: int64(time.Since(l.origin))})
	l.stack = append(l.stack, len(l.spans)-1)
	return len(l.spans) - 1
}

// end closes span i, which must be the innermost open one, and returns
// its duration in ns.
func (l *spanLog) end(i int) int64 {
	if l == nil {
		return 0
	}
	s := &l.spans[i]
	s.end = int64(time.Since(l.origin))
	l.stack = l.stack[:len(l.stack)-1]
	return s.end - s.start
}

// write stores the spans as JSON lines, each with its self time: its
// duration minus the time its child spans cover.
func (l *spanLog) write(path string) error {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range l.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"req":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
			i, s.name, s.req, s.parent, s.start, s.end, s.end-s.start-child[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
