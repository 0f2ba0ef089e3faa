package rnic

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// BenchmarkWR measures the simulator's host cost per work request on a
// loopback QP: post one signaled WR, ring the doorbell, and run the
// engine until its completion has been delivered.
func BenchmarkWR(b *testing.B) {
	for _, op := range []wqe.Opcode{wqe.OpNoop, wqe.OpWrite, wqe.OpCAS} {
		b.Run(op.String(), func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.NewEngine()
			dev := New(eng, mem.New(1<<20), ConnectX5(), 1)
			qp := dev.NewLoopbackQP(QPConfig{})
			src := dev.Mem().Alloc(64, 8)
			dst := dev.Mem().Alloc(64, 8)
			w := wqe.WQE{Op: op, Src: src, Dst: dst, Flags: wqe.FlagSignaled}
			if op == wqe.OpWrite {
				w.Len = 64
			}
			cq := qp.SendCQ()
			cq.SetAutoDrain(true)
			done := 0
			cq.OnDeliver(func(e CQE) {
				if e.Status != StatusOK {
					b.Fatalf("%v completed with %v", op, e.Status)
				}
				done++
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Cmp, w.Swap = uint64(i), uint64(i+1) // CAS always hits
				qp.PostSend(w)
				qp.RingSQ()
				eng.Run()
			}
			if done != b.N {
				b.Fatalf("%d of %d WRs completed", done, b.N)
			}
		})
	}
}
