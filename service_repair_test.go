package redn

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// Repair and live resharding converge a lagging owner through the same
// roll-forward. Each case diverges one key across its two owners, hands
// the laggard to one caller — a repair record or a migration copy — and
// checks the laggard's end state, the cache-epoch bump on apply, and
// that caller's own counters.
func TestServiceRollForwardOutcomes(t *testing.T) {
	const key = 77
	v1, v2 := Value(key, 64), Value(key+1, 64)
	// ownerWriteAt applies one versioned write to a single owner,
	// bypassing the quorum: the divergence every case starts from.
	ownerWriteAt := func(t *testing.T, s *Service, sh *serviceShard, kind Op, val []byte, ver uint64) {
		t.Helper()
		st, done := ownerWriteStatus(-1), false
		s.ownerWrite(sh, kind, key, val, ver, 0, func(got ownerWriteStatus) { st, done = got, true })
		s.Testbed().RunFor(sim.Millisecond)
		if !done || st != ownerApplied {
			t.Fatalf("divergence write: status %d (done=%v)", st, done)
		}
		s.noteOwnerApplied(sh, kind == OpDelete, key, ver)
	}
	type outcome int
	const (
		applied outcome = iota
		caughtUp
		unreachable
	)
	for _, c := range []struct {
		name    string
		diverge func(t *testing.T, s *Service, win, lag *serviceShard)
		want    outcome
		del     bool   // the winning state is a tombstone
		ver     uint64 // the laggard's version afterwards
	}{
		{name: "value-winner", want: applied, ver: 2,
			diverge: func(t *testing.T, s *Service, win, _ *serviceShard) {
				ownerWriteAt(t, s, win, OpSet, v2, 2)
			}},
		{name: "tombstone-winner", want: applied, del: true, ver: 2,
			diverge: func(t *testing.T, s *Service, win, _ *serviceShard) {
				ownerWriteAt(t, s, win, OpDelete, nil, 2)
			}},
		// Both owners already hold the write: the caller finds nothing
		// to move.
		{name: "caught-up", want: caughtUp, ver: 1},
		// The laggard is suspected for longer than every retry budget.
		{name: "unreachable", want: unreachable, ver: 1,
			diverge: func(t *testing.T, s *Service, win, lag *serviceShard) {
				ownerWriteAt(t, s, win, OpSet, v2, 2)
				lag.suspectUntil = s.Now() + sim.Second
			}},
	} {
		for _, caller := range []string{"repair", "migration"} {
			t.Run(c.name+"/"+caller, func(t *testing.T) {
				s := NewServiceWith(ServiceConfig{
					Shards: 2, ClientsPerShard: 1, Pipeline: 4, Mode: LookupSeq,
					Replicas: 2, HotKeyCache: 8,
				})
				if err := s.Set(key, v1); err != nil {
					t.Fatal(err)
				}
				s.Run()
				owners := s.Owners(key)
				win, lag := s.shards[owners[0]], s.shards[owners[1]]
				if c.diverge != nil {
					c.diverge(t, s, win, lag)
				}
				// A value cached before convergence: an apply must evict
				// it and fence in-flight gets with an epoch bump.
				s.cache[key] = v1
				epoch := s.setEpoch[key]
				shBefore, svcBefore := lag.ctr, s.ctr

				switch caller {
				case "repair":
					s.queueRepair(lag, key, 2)
				case "migration":
					// A membership change that moves nothing: the old
					// ring is the live one, so the owner sets agree and
					// only the migrator's copy logic is under test.
					m := &migration{oldRing: s.ring.Clone(), replicas: s.cfg.Replicas,
						geom: win.table.table, segW: 1,
						segKeys: make(map[uint64][]uint64), sealed: make(map[uint64]bool)}
					s.mig = m
					finished := false
					s.migrateKey(m, key, 0, func() { finished = true })
					defer func() {
						if !finished {
							t.Error("migration copy never reported")
						}
					}()
				}
				s.Testbed().RunFor(100 * sim.Millisecond)
				s.mig = nil

				// The laggard's end state.
				gotVer, gotDel, ok := s.ownerState(lag, key)
				if !ok || gotVer != c.ver || gotDel != c.del {
					t.Fatalf("laggard state (ver, del, ok) = (%d, %v, %v), want (%d, %v, true)",
						gotVer, gotDel, ok, c.ver, c.del)
				}
				val, resident := ownerValue(t, s, lag.id, key)
				switch {
				case c.del:
					if resident {
						t.Fatal("tombstone roll-forward left the key resident")
					}
				case c.want == applied:
					if !bytes.Equal(val, v2) {
						t.Fatal("laggard does not hold the winning value")
					}
				case !bytes.Equal(val, v1):
					t.Fatal("laggard's value changed without an apply")
				}
				cached, inCache := s.cache[key]
				if c.want == applied {
					if s.setEpoch[key] != epoch+1 || inCache {
						t.Fatalf("apply: epoch %d -> %d, cached=%v; want a bump and an eviction",
							epoch, s.setEpoch[key], inCache)
					}
				} else if s.setEpoch[key] != epoch || !inCache || !bytes.Equal(cached, v1) {
					t.Fatal("no apply, yet the cache entry or epoch moved")
				}

				sh, svc := lag.ctr, s.ctr
				type counts [3]uint64
				switch caller {
				case "repair":
					got := counts{sh.RepairsApplied - shBefore.RepairsApplied,
						sh.RepairsSuperseded - shBefore.RepairsSuperseded,
						sh.RepairsDropped - shBefore.RepairsDropped}
					want := map[outcome]counts{applied: {1, 0, 0}, caughtUp: {0, 1, 0},
						unreachable: {0, 0, 1}}[c.want]
					if got != want {
						t.Fatalf("repairs (applied, superseded, dropped) = %v, want %v", got, want)
					}
					if n := sh.RepairsQueued - shBefore.RepairsQueued; n != 1 {
						t.Fatalf("%d repair records, want 1", n)
					}
				case "migration":
					got := counts{svc.MigKeysMoved - svcBefore.MigKeysMoved,
						svc.MigKeysSkipped - svcBefore.MigKeysSkipped,
						svc.MigCopyFails - svcBefore.MigCopyFails}
					want := map[outcome]counts{applied: {1, 0, 0}, caughtUp: {0, 1, 0},
						unreachable: {0, 0, 1}}[c.want]
					if got != want {
						t.Fatalf("migration (moved, skipped, copy fails) = %v, want %v", got, want)
					}
					// An abandoned copy hands the laggard to the repair
					// queue, which then exhausts its own attempt budget.
					handoff := uint64(0)
					if c.want == unreachable {
						handoff = 1
					}
					if q, d := sh.RepairsQueued-shBefore.RepairsQueued,
						sh.RepairsDropped-shBefore.RepairsDropped; q != handoff || d != handoff {
						t.Fatalf("repair handoff (queued, dropped) = (%d, %d), want (%d, %d)",
							q, d, handoff, handoff)
					}
				}
				if s.repq.Len() != 0 {
					t.Fatalf("%d repair records still pending", s.repq.Len())
				}
			})
		}
	}
}
