package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestEngineOrderProperty drives seeded random schedules through the
// engine: duplicate timestamps, past times that must clamp to now,
// events scheduled from inside callbacks, RunUntil splits and Stop.
// Whatever the interleaving, the execution order must equal a stable
// sort of the executed events on (at, seq), each event must run at its
// clamped time, and RunUntil and Stop must halt exactly where they say.
// A failure names its seed; rerun that seed alone to replay it.
func TestEngineOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		if !checkEngineOrder(t, seed) {
			return
		}
	}
}

func checkEngineOrder(t *testing.T, seed int64) bool {
	t.Helper()
	const maxEvents = 600
	r := rand.New(rand.NewSource(seed))
	e := NewEngine()
	// Events are identified by schedule order, which is the engine's
	// seq order; ats holds each one's clamped time.
	var (
		ats       []Time
		ran       []int
		done      []bool
		stoppedBy = -1
		bad       string
	)
	var schedule func()
	schedule = func() {
		id := len(ats)
		done = append(done, false)
		// A narrow window makes equal timestamps common; negative
		// offsets land in the past and must clamp to now.
		d := Time(r.Intn(12) - 3)
		at := e.Now() + d
		ats = append(ats, max(at, e.Now()))
		fn := func() {
			if e.Now() != ats[id] && bad == "" {
				bad = "event ran at the wrong time"
			}
			ran = append(ran, id)
			done[id] = true
			for k := r.Intn(3); k > 0 && len(ats) < maxEvents; k-- {
				schedule()
			}
			if r.Intn(40) == 0 {
				stoppedBy = id
				e.Stop()
			}
		}
		if r.Intn(2) == 0 {
			e.At(at, fn)
		} else {
			e.After(d, fn)
		}
	}
	for i := 0; i < 40; i++ {
		schedule()
	}
	for e.Pending() > 0 {
		stoppedBy = -1
		before := len(ran)
		if r.Intn(2) == 0 {
			e.Run()
		} else {
			deadline := e.Now() + Time(r.Intn(20))
			e.RunUntil(deadline)
			if stoppedBy < 0 {
				if e.Now() != deadline {
					t.Errorf("seed %d: RunUntil(%v) left the clock at %v", seed, deadline, e.Now())
					return false
				}
				for id, at := range ats {
					if at <= deadline && !done[id] {
						t.Errorf("seed %d: event %d at %v still queued after RunUntil(%v)", seed, id, at, deadline)
						return false
					}
				}
			}
			for _, id := range ran[before:] {
				if ats[id] > deadline {
					t.Errorf("seed %d: event %d at %v ran before RunUntil(%v) returned", seed, id, ats[id], deadline)
					return false
				}
			}
		}
		if stoppedBy >= 0 && (ran[len(ran)-1] != stoppedBy || e.Now() != ats[stoppedBy]) {
			t.Errorf("seed %d: Stop in event %d did not halt the run after it at %v (last ran %d, clock %v)",
				seed, stoppedBy, ats[stoppedBy], ran[len(ran)-1], e.Now())
			return false
		}
		if bad != "" {
			t.Errorf("seed %d: %s", seed, bad)
			return false
		}
	}
	if len(ran) != len(ats) {
		t.Errorf("seed %d: ran %d of %d scheduled events", seed, len(ran), len(ats))
		return false
	}
	want := make([]int, len(ats))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool { return ats[want[i]] < ats[want[j]] })
	for i := range want {
		if ran[i] != want[i] {
			t.Errorf("seed %d: position %d ran event %d (at %v), want %d (at %v)",
				seed, i, ran[i], ats[ran[i]], want[i], ats[want[i]])
			return false
		}
	}
	if uint64(len(ran)) != e.Executed() {
		t.Errorf("seed %d: Executed() = %d, want %d", seed, e.Executed(), len(ran))
		return false
	}
	return true
}

// TestEngineSteadyStateZeroAlloc pins the hot loop's cost: once the
// queue's backing array has grown, scheduling and running a pre-bound
// func allocates nothing.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	n := 0
	fn := func() { n++ }
	for i := 0; i < 64; i++ {
		e.At(Time(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.After(Time(64-i), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("At + Run of a pre-bound func: %v allocs per run, want 0", allocs)
	}
}

// TestEngineReleasesRunEvents: once an event has run, the engine no
// longer references its callback, so whatever the callback captured
// can be collected while the engine lives on.
func TestEngineReleasesRunEvents(t *testing.T) {
	e := NewEngine()
	freed := make(chan struct{})
	func() {
		obj := new([64]byte)
		runtime.SetFinalizer(obj, func(*[64]byte) { close(freed) })
		e.At(1, func() { obj[0]++ })
	}()
	e.Run()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(e)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a run event's callback is still reachable from the engine")
}

// BenchmarkEngineEvents measures the engine's own cost per event: a
// queue of 1024 pending events, each of which reschedules itself a
// pseudo-random delay ahead, as device step loops do.
func BenchmarkEngineEvents(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	left := b.N
	x := uint32(1)
	var fn func()
	fn = func() {
		if left <= 0 {
			return
		}
		left--
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		e.After(Time(x%1000), fn)
	}
	for i := 0; i < 1024; i++ {
		e.At(Time(i), fn)
	}
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
