package main

import (
	"container/heap"
	"runtime"
	"time"
)

// The reference work is a fixed chunk of host work shaped like the
// simulator's: a binary heap of boxed events carrying closures, map
// updates and small allocations. It uses no code of the repository, so
// a change to the simulator does not move it, while a machine running
// slower does. Chunks run between drive slices all through the timed
// phases, so they sample the same machine state as the work they time.
const (
	refChunkOps = 4000                  // about a millisecond of host work
	refEvery    = 20 * time.Millisecond // host time between chunks
	// refSecond is the number of chunks that make one reference
	// second: host times are reported in reference seconds, the time
	// a machine takes that runs refSecond chunks in one second.
	refSecond = 1000
)

type refEvent struct {
	at uint64
	fn func()
}

type refHeap []refEvent

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refClock times a phase net of the reference chunks run inside it.
type refClock struct {
	start, last time.Time
	refNs       int64  // host time spent in chunks
	refMallocs  uint64 // heap allocations the chunks made
	chunks      int
	sum         uint64 // keeps the chunks' results live
}

func (c *refClock) begin() {
	c.start = time.Now()
	c.last = c.start
	c.refNs, c.refMallocs, c.chunks = 0, 0, 0
}

// tick runs a reference chunk when refEvery has passed since the last.
func (c *refClock) tick() {
	if time.Since(c.last) < refEvery {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	t0 := time.Now()
	h := make(refHeap, 0, 64)
	m := make(map[uint64]uint64, 64)
	x := uint64(88172645463325252)
	for i := 0; i < refChunkOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % 256
		buf := make([]byte, 16+x%48)
		heap.Push(&h, refEvent{at: x % 1_000_000, fn: func() { m[k] += uint64(len(buf)) }})
		if h.Len() > 48 {
			heap.Pop(&h).(refEvent).fn()
		}
	}
	c.sum += uint64(len(m))
	c.last = time.Now()
	c.refNs += int64(c.last.Sub(t0))
	c.chunks++
	runtime.ReadMemStats(&ms)
	c.refMallocs += ms.Mallocs - mallocs0
}

// end returns the phase's host time net of its chunks, in ns, and the
// mean host time of one chunk.
func (c *refClock) end() (netNs, chunkNs int64) {
	netNs = int64(time.Since(c.start)) - c.refNs
	if c.chunks == 0 {
		// Too short a phase to sample; time one chunk now.
		c.last = time.Time{}
		c.tick()
	}
	return netNs, c.refNs / int64(c.chunks)
}
