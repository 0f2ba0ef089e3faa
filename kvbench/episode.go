package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro"
	"repro/internal/failure"
	"repro/internal/sim"
)

// keyState is the shadow model of one key's writes. Sets and deletes
// share one per-key sequence, numbered in issue order; every set
// stores its sequence in the payload, so a get hit names the write
// it observed.
type keyState struct {
	issued  uint32 // sequence of the newest write issued
	acked   uint32 // newest write acknowledged
	floor   uint32 // newest write every owner is known to hold
	lastDel uint32 // sequence of the newest delete issued (0 = none)
}

// phase collects one stretch of traffic: what was attempted, what
// failed, and the latency of each successful op by kind.
type phase struct {
	attempted, completed, failed int
	lat                          [3][]sim.Time // by op kind
	start, lastDone              sim.Time
}

// episode is one fresh service, preloaded, driven through a
// workload's measured phase and checked, with what it measured.
type episode struct {
	w        *spec
	in       inputs
	svc      *redn.Service
	eng      *sim.Engine
	ks       []keyState
	cur      *phase   // the phase ops issued now belong to
	inflight int      // ops issued and not yet answered
	spans    *spanLog // nil when untraced
	scratch  []byte
	reqs     int // requests issued, for span ids

	// The first few correctness violations, and of failed ops: misses
	// of keys that should exist and writes that returned an error.
	problems, failures []string

	measured, sweep *phase

	setupNs, preloadNs, wallNs int64
	setupAllocBytes            uint64 // TotalAlloc across service construction
	mallocs                    uint64 // heap allocations in the measured phase
	liveHeap                   uint64 // HeapAlloc after a forced GC, service reachable

	// Measured-phase layer accounting: counters at its start and end,
	// stale replicas once quiet, the event queue's peak depth, and the
	// host time inside RunUntil, the issue calls and Flush (traced only).
	before, after             snapshot
	staleEnd                  int
	peakPending               int
	driveNs, issueNs, flushNs int64
	issues, flushes           int

	// Host clocks of the set-up and the measured phase, net of the
	// reference chunks run inside them, with each chunk's mean time.
	setupClock, clock         refClock
	measuring                 bool
	setupChunkNs, wallChunkNs int64
	mallocs0                  uint64
	prof                      bytes.Buffer // CPU profile of the measured phase, traced only
}

func (e *episode) problem(format string, args ...any) { note(&e.problems, format, args...) }

func (e *episode) failure(format string, args ...any) { note(&e.failures, format, args...) }

func note(list *[]string, format string, args ...any) {
	if len(*list) < 8 {
		*list = append(*list, fmt.Sprintf(format, args...))
	} else if len(*list) == 8 {
		*list = append(*list, "...")
	}
}

// payload is the value of write seq to key: the key and sequence,
// then bytes derived from both, so corruption anywhere in the value
// shows as a mismatch.
func payload(dst []byte, key uint64, seq uint32) {
	binary.LittleEndian.PutUint64(dst[0:], key)
	binary.LittleEndian.PutUint64(dst[8:], uint64(seq))
	x := key*0x9E3779B97F4A7C15 ^ uint64(seq)*0xBF58476D1CE4E5B9
	var w [8]byte
	for i := 16; i < len(dst); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(w[:], x)
		copy(dst[i:], w[:])
	}
}

// issue posts o, timed from start (its issue time, or its due time in
// an open loop); done runs after the op's completion is recorded.
func (e *episode) issue(o op, start sim.Time, done func()) {
	ph := e.cur
	ph.attempted++
	e.inflight++
	k := &e.ks[o.idx]
	key := e.in.keys[o.idx]
	e.reqs++
	sp := e.spans.begin("issue", e.reqs)
	switch o.kind {
	case opGet:
		floor := e.floorOf(o.idx)
		e.svc.GetAsync(key, uint64(e.in.sizes[o.idx]), func(v []byte, _ redn.Duration, ok bool) {
			e.inflight--
			e.checkGet(ph, o.idx, floor, v, ok, start)
			done()
		})
	case opSet:
		k.issued++
		seq := k.issued
		v := make([]byte, e.in.sizes[o.idx])
		payload(v, key, seq)
		e.svc.SetAsync(key, v, func(_ redn.Duration, err error) {
			e.inflight--
			e.ackWrite(ph, opSet, o.idx, seq, err, start)
			done()
		})
	case opDel:
		k.issued++
		seq := k.issued
		k.lastDel = seq
		e.svc.DeleteAsync(key, func(_ redn.Duration, err error) {
			e.inflight--
			e.ackWrite(ph, opDel, o.idx, seq, err, start)
			done()
		})
	}
	e.issueNs += e.spans.end(sp)
	e.issues++
}

// floorOf returns the oldest write a get of key i may legally observe.
// With W < N a lagging owner may serve an older version until every
// owner holds the acknowledged write, so the floor only rises to the
// newest ack once the service reports no stale owner for the key.
// That report alone is not enough: StaleOwners also reads zero while
// every owner has the key parked mid-claim. With no write of the key
// unacknowledged, at least W owners hold the newest write published,
// so zero stale owners then means every owner holds it.
func (e *episode) floorOf(i int32) uint32 {
	k := &e.ks[i]
	if k.acked > k.floor && k.issued == k.acked && e.svc.StaleOwners(e.in.keys[i:i+1]) == 0 {
		k.floor = k.acked
	}
	return k.floor
}

func (e *episode) checkGet(ph *phase, i int32, floor uint32, v []byte, ok bool, start sim.Time) {
	now := e.eng.Now()
	k := &e.ks[i]
	key := e.in.keys[i]
	if !ok {
		// A miss is correct only when a delete no older than the floor
		// was issued before the get completed.
		if k.lastDel == 0 || k.lastDel < floor {
			ph.failed++
			e.failure("get %#x missed; floor write %d is a set and no later delete was issued", key, floor)
			return
		}
		ph.completed++
		ph.lastDone = now
		return
	}
	seq := uint32(0)
	want := e.scratch[:e.in.sizes[i]]
	if len(v) == len(want) {
		seq = uint32(binary.LittleEndian.Uint64(v[8:]))
		payload(want, key, seq)
	}
	switch {
	case len(v) != len(want) || !bytes.Equal(v, want):
		ph.failed++
		e.problem("get %#x returned a value no write produced", key)
	case seq < floor:
		ph.failed++
		e.problem("get %#x returned write %d, older than floor %d", key, seq, floor)
	case seq > k.issued:
		ph.failed++
		e.problem("get %#x returned write %d, newer than the last issued %d", key, seq, k.issued)
	default:
		ph.completed++
		ph.lastDone = now
		ph.lat[opGet] = append(ph.lat[opGet], now-start)
	}
}

func (e *episode) ackWrite(ph *phase, kind uint8, i int32, seq uint32, err error, start sim.Time) {
	if err != nil {
		ph.failed++
		e.failure("write %d of %#x failed: %v", seq, e.in.keys[i], err)
		return
	}
	k := &e.ks[i]
	if seq > k.acked {
		k.acked = seq
	}
	now := e.eng.Now()
	ph.completed++
	ph.lastDone = now
	ph.lat[kind] = append(ph.lat[kind], now-start)
}

func (e *episode) flush() {
	sp := e.spans.begin("flush", -1)
	e.svc.Flush()
	e.flushNs += e.spans.end(sp)
	e.flushes++
}

// closedLoop runs ops with users concurrent callers, each issuing its
// next op when the previous completes. before, if set, runs ahead of
// each issue with the op's index.
func (e *episode) closedLoop(ops []op, users int, before func(i int)) {
	next := 0
	var user func()
	user = func() {
		if next >= len(ops) {
			return
		}
		if before != nil {
			before(next)
		}
		o := ops[next]
		next++
		e.issue(o, e.eng.Now(), func() {
			user()
			e.flush()
		})
	}
	for u := 0; u < users; u++ {
		user()
	}
	e.flush()
	e.drive(func() bool { return next == len(ops) && e.inflight == 0 })
}

// openLoop issues op i at exactly start + due[i], whatever is still
// outstanding, and times each op from that due time.
func (e *episode) openLoop(ops []op, due []sim.Time) {
	start := e.eng.Now()
	next := 0
	var tick func()
	tick = func() {
		at := start + due[next]
		if now := e.eng.Now(); now != at {
			e.problem("op %d issued at %d, due at %d", next, now, at)
		}
		e.issue(ops[next], at, func() {})
		e.flush()
		next++
		if next < len(ops) {
			e.eng.At(start+due[next], tick)
		}
	}
	e.eng.At(start, tick)
	e.drive(func() bool { return next == len(ops) && e.inflight == 0 })
}

// drive advances the engine one slice at a time until done, sampling
// the event queue depth between slices.
func (e *episode) drive(done func() bool) {
	for !done() {
		if e.eng.Pending() == 0 {
			e.problem("engine went idle with %d ops unanswered", e.inflight)
			return
		}
		sp := e.spans.begin("drive", -1)
		e.eng.RunUntil(e.eng.Now() + e.w.slice)
		e.driveNs += e.spans.end(sp)
		if p := e.eng.Pending(); p > e.peakPending {
			e.peakPending = p
		}
		if e.measuring {
			e.clock.tick()
		}
	}
}

// quiesce runs every pending event, background replication, repair
// and compaction included.
func (e *episode) quiesce() { e.eng.Run() }

// beginMeasure opens the measured phase: ops issued from now on are
// measured, and layer counters, the allocation count and the host
// clock are read here and again by endMeasure. A crash the workload
// schedules is timed from here.
func (e *episode) beginMeasure() {
	e.before = e.snapshot()
	if e.spans != nil {
		if err := pprof.StartCPUProfile(&e.prof); err != nil {
			e.problem("start CPU profile: %v", err)
		}
	}
	if e.w.crashAt > 0 {
		e.svc.CrashShard(0, failure.ProcessCrash, e.eng.Now()+e.w.crashAt)
	}
	e.peakPending, e.driveNs, e.issueNs, e.flushNs, e.issues, e.flushes = 0, 0, 0, 0, 0, 0
	e.cur = &phase{start: e.eng.Now()}
	e.measured = e.cur
	// Start every measured phase from a collected heap, so the number
	// of collections inside it does not depend on set-up leftovers.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.mallocs0 = ms.Mallocs
	e.measuring = true
	e.clock.begin()
}

func (e *episode) endMeasure() {
	e.wallNs, e.wallChunkNs = e.clock.end()
	e.measuring = false
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.mallocs = ms.Mallocs - e.mallocs0 - e.clock.refMallocs
	if e.spans != nil {
		pprof.StopCPUProfile()
	}
	e.after = e.snapshot()
}

// runEpisode builds a service for w, preloads it, runs the warm-up and
// measured phase, the checks and the sweeps. traced turns on the
// service's provenance and profiler, records host spans around every
// call into a layer and CPU-profiles the measured phase.
func runEpisode(w *spec, seed int64, traced bool) *episode {
	in := w.inputs(seed)
	keys := in.keys
	e := &episode{w: w, in: in, ks: make([]keyState, len(keys)), scratch: make([]byte, w.valMax)}
	if traced {
		e.spans = newSpanLog()
	}
	cfg := w.cfg
	cfg.Provenance, cfg.Profile = traced, traced

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	e.setupClock.begin()
	sp := e.spans.begin("setup", -1)
	e.svc = redn.NewServiceWith(cfg)
	e.spans.end(sp)
	runtime.ReadMemStats(&ms)
	e.setupAllocBytes = ms.TotalAlloc - alloc0
	e.eng = e.svc.Testbed().Engine()

	// Preload: every key at version 1, one blocking Set at a time.
	tp := time.Now()
	sp = e.spans.begin("preload", -1)
	for i, key := range keys {
		v := make([]byte, in.sizes[i])
		payload(v, key, 1)
		if err := e.svc.Set(key, v); err != nil {
			e.problem("preload set %#x: %v", key, err)
			continue
		}
		e.ks[i] = keyState{issued: 1, acked: 1, floor: 1}
		e.setupClock.tick()
	}
	e.quiesce()
	e.spans.end(sp)
	if n := e.svc.StaleOwners(keys); n != 0 {
		e.problem("preload left %d stale replicas", n)
	}
	e.preloadNs = int64(time.Since(tp)) - e.setupClock.refNs
	e.setupNs, e.setupChunkNs = e.setupClock.end()

	// Warm-up, then the measured phase.
	e.cur = &phase{start: e.eng.Now()}
	if w.users > 0 {
		e.closedLoop(in.ops, w.users, func(i int) {
			if i == w.warmup {
				e.beginMeasure()
			}
		})
	} else {
		e.beginMeasure()
		e.openLoop(in.ops, in.due)
	}
	e.endMeasure()

	e.quiesce()
	if e.staleEnd = e.svc.StaleOwners(keys); e.staleEnd != 0 {
		e.problem("%d stale replicas after the service went quiet", e.staleEnd)
	}
	if traced {
		// The profiler sees every grant since t=0, so its exec total
		// must equal the summed busy time of every server NIC resource.
		var busy sim.Time
		for _, r := range e.svc.Stats().Resources {
			busy += r.Busy
		}
		if got := e.svc.Profiler().ExecTotal(); got != busy {
			e.problem("profiler exec total %d ns != resource busy %d ns", got, busy)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	e.liveHeap = ms.HeapAlloc

	e.cur = &phase{start: e.eng.Now()}
	e.sweep = e.cur
	for _, sweep := range [][]op{in.sweepSets, in.sweepDels} {
		e.closedLoop(sweep, sweepUsers, nil)
		e.quiesce()
	}
	runtime.KeepAlive(e.svc)
	return e
}
