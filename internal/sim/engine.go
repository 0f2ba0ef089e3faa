// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an ordered event queue, serialized resources, and
// token-bucket rate limiters. All of RedN's substrates (the RNIC model,
// the fabric, the host CPU model) are built on top of it so that every
// experiment in the paper reproduces bit-for-bit on every run.
package sim

import "fmt"

// Time is virtual time in nanoseconds since the start of the simulation.
type Time int64

// Common durations, expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros reports t as a floating-point number of microseconds, the unit
// used throughout the paper's evaluation.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

type event struct {
	at  Time
	seq uint64 // tie-break so equal-time events run in schedule order
	fn  func()
}

// eventHeap is a binary min-heap of events on the (at, seq) total
// order. Events are stored by value, so pushing and popping never box
// them; because (at, seq) is a total order, any correct priority queue
// pops the same sequence.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the backing array does not keep the callback reachable.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// Engine is a single-threaded discrete-event scheduler. Events run in
// (time, schedule-order) order; callbacks may schedule further events.
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	stopped bool
	// Stats
	executed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is treated as "now" (the event runs before time advances).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		ev := e.events.pop()
		e.now = ev.at
		e.executed++
		ev.fn()
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to the deadline. Events scheduled beyond the deadline remain
// queued and run on a subsequent Run/RunUntil call.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].at > deadline {
			break
		}
		ev := e.events.pop()
		e.now = ev.at
		e.executed++
		ev.fn()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// Stop halts the current Run/RunUntil after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.events) }

// Executed reports how many events have run since engine creation.
func (e *Engine) Executed() uint64 { return e.executed }
