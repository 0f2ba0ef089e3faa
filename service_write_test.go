package redn

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/failure"
	"repro/internal/sim"
)

// Values and get lengths beyond MaxValLen are caller errors the public
// API reports, never panics: writes fail with *ErrValueTooLarge after a
// zero-cost hop (nothing issued anywhere), gets complete as not found.
func TestServiceOversizedValues(t *testing.T) {
	s := NewServiceWith(ServiceConfig{
		Shards: 2, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq, Replicas: 2,
	})
	const key = 7
	if err := s.Set(key, Value(key, 64)); err != nil {
		t.Fatal(err)
	}
	max := s.cfg.MaxValLen
	big := make([]byte, max+1)
	// async runs one *Async call, checks it completes from the
	// simulation rather than synchronously, and waits for it.
	async := func(t *testing.T, issue func(done *bool)) {
		t.Helper()
		done := false
		issue(&done)
		if done {
			t.Fatal("callback ran synchronously")
		}
		s.Flush()
		if !s.tb.stepUntil(&done) {
			t.Fatal("callback never ran")
		}
	}
	tooLarge := func(t *testing.T, err error) {
		t.Helper()
		var e *ErrValueTooLarge
		if !errors.As(err, &e) || e.Key != key || e.Len != max+1 || e.Max != max {
			t.Fatalf("got %v, want *ErrValueTooLarge{%d, %d, %d}", err, key, max+1, max)
		}
	}
	notFound := func(t *testing.T, val []byte, ok bool) {
		t.Helper()
		if ok || val != nil {
			t.Fatalf("oversized get returned ok=%v with %d bytes, want not found", ok, len(val))
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"Set", func(t *testing.T) { tooLarge(t, s.Set(key, big)) }},
		{"SetAsync", func(t *testing.T) {
			var err error
			var lat Duration = -1
			async(t, func(done *bool) {
				s.SetAsync(key, big, func(l Duration, e error) { lat, err, *done = l, e, true })
			})
			tooLarge(t, err)
			if lat != 0 {
				t.Fatalf("refused write reported latency %v, want a zero-cost hop", lat)
			}
		}},
		{"Get", func(t *testing.T) {
			val, _, ok := s.Get(key, max+1)
			notFound(t, val, ok)
		}},
		{"GetAsync", func(t *testing.T) {
			var val []byte
			var ok bool
			async(t, func(done *bool) {
				s.GetAsync(key, max+1, func(v []byte, _ Duration, hit bool) { val, ok, *done = v, hit, true })
			})
			notFound(t, val, ok)
		}},
	} {
		t.Run(tc.name, tc.run)
	}
	// Nothing was issued: the stored value is untouched on every owner.
	if st := s.Stats(); st.SetOps != 1 {
		t.Fatalf("SetOps = %d, want only the initial write", st.SetOps)
	}
	for _, id := range s.Owners(key) {
		if v, ok := ownerValue(t, s, id, key); !ok || !bytes.Equal(v, Value(key, 64)) {
			t.Fatalf("owner %s lost the stored value", id)
		}
	}
}

// The owner-write path is one function for sets and deletes. Each
// routing outcome must end in the right status AND bump only its own
// kind's counters: a set must never count as a delete, or vice versa.
func TestServiceOwnerWritePaths(t *testing.T) {
	const key = 21
	type want struct {
		st                    ownerWriteStatus
		fabric, host, applied uint64
	}
	for _, sc := range []struct {
		name     string
		resident bool                   // key stored before the write
		prep     func(s *Service)       // before the write is issued
		race     func(sh *serviceShard) // after issue, before the chain runs
		set, del want
	}{
		{name: "fabric-ack", resident: true,
			set: want{ownerApplied, 1, 0, 1}, del: want{ownerApplied, 1, 0, 1}},
		// A racing host-side removal tombstones the bucket under the
		// claim: the chain executes, refuses, and the host rolls the
		// write forward.
		{name: "claim-refused", resident: true,
			race: func(sh *serviceShard) { sh.table.table.RemoveV(key, 0) },
			set:  want{ownerApplied, 1, 1, 1}, del: want{ownerApplied, 1, 1, 1}},
		// NIC frozen and host down: the chain never runs, and there is
		// no CPU to roll forward on.
		{name: "host-down", resident: true,
			prep: func(s *Service) {
				s.CrashShard(0, failure.ProcessCrash, s.Now())
				s.Testbed().RunFor(sim.Microsecond)
			},
			set: want{ownerUnreachable, 1, 0, 0}, del: want{ownerUnreachable, 1, 0, 0}},
		{name: "suspect", resident: true,
			prep: func(s *Service) { s.order[0].suspectUntil = s.Now() + sim.Second },
			set:  want{ownerUnreachable, 0, 0, 0}, del: want{ownerUnreachable, 0, 0, 0}},
		// Absent key: a set takes a fresh fabric claim, a delete is
		// trivially applied — the owner is already at its end state.
		{name: "absent",
			set: want{ownerApplied, 1, 0, 1}, del: want{ownerApplied, 0, 0, 1}},
	} {
		for _, kind := range []Op{OpSet, OpDelete} {
			t.Run(sc.name+"/"+kind.String(), func(t *testing.T) {
				s := NewServiceWith(ServiceConfig{
					Shards: 1, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
				})
				sh := s.order[0]
				if sc.resident {
					if err := s.Set(key, Value(key, 64)); err != nil {
						t.Fatal(err)
					}
				}
				if sc.prep != nil {
					sc.prep(s)
				}
				before := s.Stats().Shards[0]
				var val []byte
				w := sc.set
				if kind == OpDelete {
					w = sc.del
				} else {
					val = Value(key+1, 64)
				}
				got, done := ownerWriteStatus(-1), false
				s.ownerWrite(sh, kind, key, val, 100, 0, func(st ownerWriteStatus) { got, done = st, true })
				if sc.race != nil {
					sc.race(sh)
				}
				s.Testbed().RunFor(sim.Millisecond)
				if !done || got != w.st {
					t.Fatalf("status %d (done=%v), want %d", got, done, w.st)
				}
				after := s.Stats().Shards[0]
				type counts struct{ fabric, host, applied uint64 }
				sets := counts{after.FabricSets - before.FabricSets, after.HostSets - before.HostSets,
					after.Sets - before.Sets}
				dels := counts{after.FabricDeletes - before.FabricDeletes,
					after.HostDeletes - before.HostDeletes, after.Deletes - before.Deletes}
				mine, other := &sets, &dels
				if kind == OpDelete {
					mine, other = &dels, &sets
				}
				if *mine != (counts{w.fabric, w.host, w.applied}) {
					t.Fatalf("%s counters (fabric, host, applied) = %v, want %v",
						kind, *mine, counts{w.fabric, w.host, w.applied})
				}
				if *other != (counts{}) {
					t.Fatalf("%s bumped the other kind's counters: %v", kind, *other)
				}
				v, ok := ownerValue(t, s, sh.id, key)
				switch {
				case w.st != ownerApplied:
					if ok != sc.resident || (ok && !bytes.Equal(v, Value(key, 64))) {
						t.Fatal("unreachable owner's table changed")
					}
				case kind == OpDelete:
					if ok {
						t.Fatal("applied delete left the key resident")
					}
				case !ok || !bytes.Equal(v, val):
					t.Fatal("applied set did not install the new value")
				}
			})
		}
	}
}
