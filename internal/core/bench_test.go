package core

import (
	"math/rand"
	"testing"

	"repro/internal/layout"
)

// BenchmarkArrayDelayedWrite is the array rung of the layer ladder for the
// write path: one delayed-mode write, submit to acknowledgement, in a
// saturated closed loop over a standing delayed queue of more than a
// thousand propagation copies per drive. The drives never go idle, so no
// copy propagates; instead every timed write rewrites a range that still
// has a copy queued, coalescing cancels that copy and queues the new one,
// and the queue holds its length.
func BenchmarkArrayDelayedWrite(b *testing.B) {
	sim, a := newArray(b, layout.SRArray(1, 2), "rsatf", nil)
	const (
		hot   = 4096 // ranges with a standing queued copy
		depth = 16   // outstanding writes
	)
	rng := rand.New(rand.NewSource(1))
	offs := make([]int64, hot)
	for i := range offs {
		offs[i] = rng.Int63n(a.DataSectors()/8) * 8
	}
	issued, finished, limit := 0, 0, 0
	var issue func()
	onDone := func(r Result) {
		if r.Failed {
			b.Fatalf("write failed: %v", r.Err)
		}
		finished++
		issue()
	}
	issue = func() {
		if issued >= limit {
			return
		}
		off := offs[rng.Intn(hot)]
		if issued < hot {
			off = offs[issued]
		}
		issued++
		if err := a.Submit(Write, off, 8, false, onDone); err != nil {
			b.Fatal(err)
		}
	}
	run := func(n int) {
		limit += n
		for i := 0; i < depth; i++ {
			issue()
		}
		for finished < issued {
			if !sim.Step() {
				b.Fatal("simulation stalled")
			}
		}
	}
	run(2 * hot)
	for i := range a.drives {
		if q := a.DelayedLen(i); q < 1000 {
			b.Fatalf("drive %d holds %d queued copies, want a standing queue of >= 1000", i, q)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
