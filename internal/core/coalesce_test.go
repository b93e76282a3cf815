package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/layout"
)

// copyDesc names a queued delayed copy by what it writes.
func copyDesc(c *delayedCopy) string {
	kind := "prop"
	switch {
	case c.rebuild:
		kind = "rebuild"
	case c.repair:
		kind = "repair"
	}
	return fmt.Sprintf("%s r%d [%d,+%d)", kind, c.replica, c.off, c.count)
}

func copyDescs(cs []*delayedCopy) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = copyDesc(c)
	}
	return out
}

// checkStaleReconciles asserts that a drive's stale counts equal its
// queued plus in-flight propagation copies per (chunk, replica), and that
// the NVRAM table holds exactly their distinct tracked entries.
func checkStaleReconciles(t *testing.T, a *Array, d *drive, inflight []*delayedCopy) {
	t.Helper()
	type key struct {
		chunk int64
		rep   int
	}
	want := map[key]int{}
	entries := map[*propEntry]bool{}
	for _, cs := range [][]*delayedCopy{d.delayed, inflight} {
		for _, c := range cs {
			if c.rebuild || c.repair {
				continue
			}
			want[key{a.copyChunk(c), int(c.replica)}]++
			if c.entry.tracked {
				entries[c.entry] = true
			}
		}
	}
	got := map[key]int{}
	for chunk, cs := range d.stale {
		for j, n := range cs.staleCount {
			if n != 0 {
				got[key{chunk, j}] = int(n)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stale counts %v, want %v from the queued and in-flight copies", got, want)
	}
	if a.NVRAMUsed() != len(entries) {
		t.Fatalf("NVRAMUsed = %d, want %d live tracked entries", a.NVRAMUsed(), len(entries))
	}
}

// TestCoalesceTable pins which queued copies a superseding write cancels
// (Section 3.4): only propagation copies of the same (chunk, replica) whose
// range the new write fully covers. Survivors keep their queue order, and
// the stale counts and the NVRAM table reconcile after every case.
//
// Every case starts from the same queue on one drive: write A = [base,+16)
// and B = [base+32,+8) in chunk K, then C = [cbase,+8) in chunk K2 on the
// same drive. A's first copy lands on some replica j0; B's must land there
// too (the only fresh one), so A and B each queue one copy for each other
// replica, in replica order: A(r1) A(r2) B(r1) B(r2) C(..) C(..).
func TestCoalesceTable(t *testing.T) {
	sim, a := newArray(t, layout.SRArray(1, 3), "rsatf", func(o *Options) {
		// Background propagation waits out a long idle window, so copies
		// stay queued until a case dispatches or drains them.
		o.IdleDelay = des.Second
	})
	piece := func(off int64) *layout.Piece {
		ps, err := a.Layout().Resolve(off, 8)
		if err != nil || len(ps) != 1 {
			t.Fatalf("resolve %d: %v", off, err)
		}
		return &ps[0]
	}
	const base = int64(128 * 30)
	pA := piece(base)
	d := a.drives[pA.Mirrors[0]]
	cbase := base + 128
	for piece(cbase).Mirrors[0] != d.id {
		cbase += 128
	}
	chunkK, chunkK2 := pA.Chunk, piece(cbase).Chunk
	const absent = int64(1 << 20) // no copy ever queued for this chunk

	write := func(off int64, count int) {
		done := false
		if err := a.Submit(Write, off, count, false, func(r Result) {
			if r.Failed {
				t.Fatalf("write [%d,+%d) failed: %v", off, count, r.Err)
			}
			done = true
		}); err != nil {
			t.Fatal(err)
		}
		for !done {
			if !sim.Step() {
				t.Fatal("simulation stalled before the write acknowledged")
			}
		}
	}

	type ctx struct {
		r1, j0, rC int // A's first queued replica, A's first-copy replica, C's first queued replica
	}
	covers := func(c *delayedCopy, off int64, count int) bool {
		return off <= c.off && off+int64(count) >= c.off+int64(c.count)
	}
	cases := []struct {
		name string
		// prep adjusts the standard queue and returns the copies it left
		// in flight (dispatched or promoted).
		prep func(x ctx) []*delayedCopy
		// call is the coalesce under test.
		call func(x ctx, inflight []*delayedCopy) (chunk, off int64, count, rep int)
		// drops is how many queued copies the call must cancel.
		drops int
	}{
		{
			name:  "full cover drops the same replica",
			call:  func(x ctx, _ []*delayedCopy) (int64, int64, int, int) { return chunkK, base, 16, x.r1 },
			drops: 1,
		},
		{
			name:  "one write supersedes several copies",
			call:  func(x ctx, _ []*delayedCopy) (int64, int64, int, int) { return chunkK, base, 128, x.r1 },
			drops: 2,
		},
		{
			name:  "partial cover keeps, exact edge covers",
			call:  func(x ctx, _ []*delayedCopy) (int64, int64, int, int) { return chunkK, base + 8, 32, x.r1 },
			drops: 1,
		},
		{
			name:  "a write ending short of the copy keeps it",
			call:  func(x ctx, _ []*delayedCopy) (int64, int64, int, int) { return chunkK, base, 8, x.r1 },
			drops: 0,
		},
		{
			name:  "another replica keeps",
			call:  func(x ctx, _ []*delayedCopy) (int64, int64, int, int) { return chunkK, base, 128, x.j0 },
			drops: 0,
		},
		{
			name: "another chunk keeps",
			call: func(x ctx, _ []*delayedCopy) (int64, int64, int, int) {
				return chunkK2, base, int(cbase-base) + 8, x.rC
			},
			drops: 1,
		},
		{
			name:  "a chunk with no copies keeps everything",
			call:  func(x ctx, _ []*delayedCopy) (int64, int64, int, int) { return absent, base, 1024, x.r1 },
			drops: 0,
		},
		{
			name: "rebuild and repair copies are never dropped",
			prep: func(x ctx) []*delayedCopy {
				for _, kind := range []string{"rebuild", "repair"} {
					d.delayed = append(d.delayed, &delayedCopy{
						entry: &propEntry{remaining: 1}, replica: int32(x.r1), extents: pA.Replicas[x.r1],
						off: base, count: 16,
						rebuild: kind == "rebuild", repair: kind == "repair",
					})
				}
				return nil
			},
			call:  func(x ctx, _ []*delayedCopy) (int64, int64, int, int) { return chunkK, base, 128, x.r1 },
			drops: 2,
		},
		{
			name: "a dispatched copy is untouched",
			prep: func(x ctx) []*delayedCopy {
				before := append([]*delayedCopy(nil), d.delayed...)
				for len(d.delayed) == len(before) {
					if !sim.Step() {
						t.Fatal("no delayed copy dispatched")
					}
				}
				for i, c := range d.delayed {
					if before[i] != c {
						return before[i : i+1]
					}
				}
				return before[len(before)-1:]
			},
			// Superseding the in-flight copy's own range finds nothing
			// queued: the copy left the queue (and the index) at dispatch.
			call: func(_ ctx, f []*delayedCopy) (int64, int64, int, int) {
				return a.copyChunk(f[0]), f[0].off, int(f[0].count), int(f[0].replica)
			},
			drops: 0,
		},
		{
			name: "a promoted copy is untouched",
			prep: func(x ctx) []*delayedCopy {
				c := d.delayed[0]
				a.forceDelayed(1)
				if len(d.delayed) == 0 || d.delayed[0] == c {
					t.Fatal("forceDelayed did not promote the oldest copy")
				}
				return []*delayedCopy{c}
			},
			call:  func(x ctx, _ []*delayedCopy) (int64, int64, int, int) { return chunkK, base, 128, x.r1 },
			drops: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			write(base, 16)
			write(base+32, 8)
			write(cbase, 8)
			if len(d.delayed) != 6 {
				t.Fatalf("standard queue %v, want 6 copies", copyDescs(d.delayed))
			}
			x := ctx{r1: int(d.delayed[0].replica), rC: int(d.delayed[4].replica)}
			x.j0 = 0 + 1 + 2 - int(d.delayed[0].replica) - int(d.delayed[1].replica)
			var inflight []*delayedCopy
			if tc.prep != nil {
				inflight = tc.prep(x)
			}
			chunk, off, count, rep := tc.call(x, inflight)
			before := append([]*delayedCopy(nil), d.delayed...)
			var want []*delayedCopy
			for _, c := range before {
				if !c.rebuild && !c.repair && a.copyChunk(c) == chunk && int(c.replica) == rep && covers(c, off, count) {
					continue
				}
				want = append(want, c)
			}
			if got := len(before) - len(want); got != tc.drops {
				t.Fatalf("case supersedes %d queued copies, want %d: %v", got, tc.drops, copyDescs(before))
			}
			a.coalesce(d, chunk, off, count, rep)
			if !reflect.DeepEqual(d.delayed, want) {
				t.Fatalf("coalesce(c%d, [%d,+%d), r%d) left\n  %v\nwant\n  %v", chunk, off, count, rep,
					copyDescs(d.delayed), copyDescs(want))
			}
			checkStaleReconciles(t, a, d, inflight)
			if !a.Drain(des.Hour) {
				t.Fatal("array never drained")
			}
			if a.NVRAMUsed() != 0 || len(d.stale) != 0 {
				t.Fatalf("after drain: NVRAMUsed = %d, %d stale chunks", a.NVRAMUsed(), len(d.stale))
			}
		})
	}
}
