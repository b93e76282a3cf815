package core

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/disk"
	"repro/internal/layout"
)

// checkDelayedIndex asserts that every drive's chunk index (see chunkState)
// lists exactly its queued propagation copies, in queue order, and that
// unindexed copies (rebuild, repair) carry no index link.
func checkDelayedIndex(a *Array) error {
	for _, d := range a.drives {
		byChunk := map[int64][]*delayedCopy{}
		for _, c := range d.delayed {
			if c.rebuild || c.repair {
				if c.next != nil {
					return fmt.Errorf("drive %d: unindexed %s has an index link", d.id, copyDesc(c))
				}
				continue
			}
			chunk := a.copyChunk(c)
			byChunk[chunk] = append(byChunk[chunk], c)
		}
		for chunk, cs := range d.stale {
			want := byChunk[chunk]
			delete(byChunk, chunk)
			var got []*delayedCopy
			if cs.tail != nil {
				for c := cs.tail.next; ; c = c.next {
					got = append(got, c)
					if c == cs.tail || len(got) > len(d.delayed) {
						break
					}
				}
			}
			if len(got) != len(want) {
				return fmt.Errorf("drive %d chunk %d: index %v, queue %v", d.id, chunk, copyDescs(got), copyDescs(want))
			}
			for i := range got {
				if got[i] != want[i] {
					return fmt.Errorf("drive %d chunk %d: index %v, queue %v", d.id, chunk, copyDescs(got), copyDescs(want))
				}
			}
		}
		for chunk, cs := range byChunk {
			return fmt.Errorf("drive %d chunk %d: %d queued copies but no chunk state", d.id, chunk, len(cs))
		}
	}
	return nil
}

// delayedIndexSeed seeds TestDelayedIndexStress; a failure prints it, and
// changing it here replays another schedule.
const delayedIndexSeed = 13

// TestDelayedIndexStress drives a write-heavy closed loop through every
// path that takes a copy off the delayed queue or puts one back — dispatch,
// coalescing, forceDelayed under a tiny NVRAM table, RecoverDelayed, the
// double-fault put-back at the front, the FailDrive sweep with a spare
// rebuild, and the crash sweep under both NVRAM durabilities — with pool
// poisoning on, and checks the chunk index after every event.
func TestDelayedIndexStress(t *testing.T) {
	defer SetPoolPoisoning(SetPoolPoisoning(true))
	for _, dur := range []NVRAMDurability{Volatile, BatteryBacked} {
		t.Run(dur.String(), func(t *testing.T) {
			seed := int64(delayedIndexSeed) + int64(dur)
			sim, a := newArray(t, layout.Config{Ds: 1, Dr: 2, Dm: 2}, "rsatf", func(o *Options) {
				o.DataSectors = 1 << 14 // few chunks: writes overlap and coalesce
				o.NVRAMEntries = 12
				o.Spares = 1
				o.Faults = disk.FaultModel{TransientRate: 0.08}
				o.Crash = CrashModel{Enabled: true, Durability: dur}
			})
			rng := rand.New(rand.NewSource(seed))
			const total = 3000
			issued, finished := 0, 0
			var issue func()
			onDone := func(Result) {
				finished++
				issue()
			}
			n := a.DataSectors() - 64
			issue = func() {
				if issued >= total || a.crashed {
					return
				}
				issued++
				op := Write
				if rng.Float64() < 0.3 {
					op = Read
				}
				if err := a.Submit(op, rng.Int63n(n), 8+rng.Intn(56), false, onDone); err != nil {
					t.Fatalf("seed %d: submit: %v", seed, err)
				}
			}
			fronts := make([]*delayedCopy, len(a.drives))
			putBacks := 0
			step := func() {
				for i, d := range a.drives {
					fronts[i] = nil
					if len(d.delayed) > 0 {
						fronts[i] = d.delayed[0]
					}
				}
				if !sim.Step() {
					t.Fatalf("seed %d: stalled at %d/%d", seed, finished, total)
				}
				for i, d := range a.drives {
					// A copy pushed in front of the old head is a put-back.
					if len(d.delayed) > 1 && fronts[i] != nil && d.delayed[1] == fronts[i] && d.delayed[0] != fronts[i] {
						putBacks++
					}
				}
				if err := checkDelayedIndex(a); err != nil {
					t.Fatalf("seed %d, t=%v, %d/%d done: %v", seed, sim.Now(), finished, total, err)
				}
			}
			for i := 0; i < 16; i++ {
				issue()
			}
			failed, crashed, replayed := false, false, false
			for finished < issued || issued < total {
				step()
				acted := true
				switch {
				case !replayed && issued >= total/4:
					replayed = true
					a.RecoverDelayed()
				case !failed && issued >= total/2:
					failed = true
					if err := a.FailDrive(1); err != nil {
						t.Fatal(err)
					}
				case !crashed && issued >= 3*total/4 && a.NVRAMUsed() > 0:
					crashed = true
					if err := a.Crash(); err != nil {
						t.Fatal(err)
					}
					if err := checkDelayedIndex(a); err != nil {
						t.Fatalf("seed %d: after crash: %v", seed, err)
					}
					if err := a.Recover(); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 16; i++ {
						issue()
					}
				default:
					acted = false
				}
				if !acted {
					continue
				}
				// The calls above take copies off the queue outside a step.
				if err := checkDelayedIndex(a); err != nil {
					t.Fatalf("seed %d, t=%v: %v", seed, sim.Now(), err)
				}
			}
			for !a.Idle() {
				step()
			}
			if !crashed || a.ForcedDelayed == 0 || putBacks == 0 || a.Faults().RebuildsStarted == 0 {
				t.Fatalf("seed %d: schedule missed a path: crashed=%v forced=%d putBacks=%d rebuilds=%d",
					seed, crashed, a.ForcedDelayed, putBacks, a.Faults().RebuildsStarted)
			}
			if a.NVRAMUsed() != 0 {
				t.Fatalf("seed %d: NVRAMUsed = %d after drain", seed, a.NVRAMUsed())
			}
			for _, d := range a.drives {
				if len(d.stale) != 0 {
					t.Fatalf("seed %d: drive %d keeps %d stale chunks after drain", seed, d.id, len(d.stale))
				}
			}
			t.Logf("seed %d: %d ops, forced=%d putBacks=%d", seed, finished, a.ForcedDelayed, putBacks)
		})
	}
}

// TestDelayedStructSizes guards the size classes of the per-copy
// bookkeeping. Every queued propagation copy is a delayedCopy, every
// chunk with one is a chunkState, and every pending write is a propEntry,
// so these structs dominate the simulator's heap on write-heavy workloads.
// On the cluster-outage benchmark (2-vCPU VM), padding delayedCopy from 96
// to 128 bytes alone raised peak RSS from 61.5 to 78.7 MB, and padding it
// from 80 to 96 bytes raised it by about 5 MB. The chunk index had to fit
// into these sizes.
func TestDelayedStructSizes(t *testing.T) {
	if s := unsafe.Sizeof(delayedCopy{}); s > 64 {
		t.Errorf("delayedCopy is %d bytes, want <= 64", s)
	}
	if s := unsafe.Sizeof(chunkState{}); s > 32 {
		t.Errorf("chunkState is %d bytes, want <= 32", s)
	}
	if s := unsafe.Sizeof(propEntry{}); s > 48 {
		t.Errorf("propEntry is %d bytes, want <= 48", s)
	}
}
