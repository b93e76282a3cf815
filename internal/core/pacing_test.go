package core

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
)

// The pacing tests pin the spacing of every bandwidth-capped background
// class on an idle array, where no foreground traffic can delay a start:
// consecutive units of work begin exactly bytes/MBps apart, the short last
// chunk is charged its own (shorter) size, and a SetTuning mid-run re-paces
// from the next charge.

// pacingConfig has six positions mirrored twice with two replicas each;
// pacingChunks chunks with a half-size last one put a short chunk on the
// slots of position 4, and 68 copies split the recovery scan into 32-copy
// batches with the short copies inside an observable (non-final) batch.
var pacingConfig = layout.Config{Ds: 3, Dr: 2, Dm: 2}

const (
	pacingChunks = 17
	pacingUnit   = int64(layout.DefaultStripeUnit)
	pacingShort  = pacingUnit / 2
)

func newPacingArray(t *testing.T, opts func(*Options)) (*des.Sim, *Array) {
	t.Helper()
	return newArray(t, pacingConfig, "satf", func(o *Options) {
		o.DataSectors = (pacingChunks-1)*pacingUnit + pacingShort
		if opts != nil {
			opts(o)
		}
	})
}

// chunkBytes is the size of chunk c of the pacing volume.
func chunkBytes(c int64) float64 {
	if c == pacingChunks-1 {
		return float64(pacingShort * disk.SectorSize)
	}
	return float64(pacingUnit * disk.SectorSize)
}

// visitOrder lists every chunk copy in the order the scrubber and the
// recovery scan visit them: slots round-robin, each slot ascending through
// its chunks and, within a chunk, its replicas.
func visitOrder(a *Array) []int64 {
	g := int64(a.opts.Config.Positions())
	type cursor struct {
		n   int64
		rep int
	}
	cur := make([]cursor, a.Disks())
	var chunks []int64
	for slot := 0; ; {
		found := false
		for i := 0; i < len(cur); i++ {
			s := (slot + i) % len(cur)
			if c := int64(s)%g + cur[s].n*g; c < pacingChunks {
				chunks = append(chunks, c)
				if cur[s].rep++; cur[s].rep == a.opts.Config.Dr {
					cur[s].rep, cur[s].n = 0, cur[s].n+1
				}
				slot, found = s+1, true
				break
			}
		}
		if !found {
			return chunks
		}
	}
}

// pacedRun records the sim instant of every background issue of one class
// and switches its rate once, right after the switchAt-th issue. Every
// class charges unit i no earlier than the previous unit's start, so the
// gap after unit i runs at the new rate exactly when i >= switchAt.
type pacedRun struct {
	// start begins the work on a fresh idle array; issued reports how many
	// units have started so far; retune applies the new rate.
	start  func(t *testing.T, a *Array)
	issued func(a *Array) int
	retune func(a *Array, mbps float64) error
	// bytes lists, per unit in start order, the byte sizes of the copies
	// charged for it.
	bytes func(a *Array) [][]float64
	opts  func(o *Options)
}

func TestBackgroundPacing(t *testing.T) {
	const oldMBps, newMBps, switchAt = 0.5, 1.0, 1
	rebuildSlot := int((pacingChunks - 1) % pacingConfig.Positions())
	classes := map[string]pacedRun{
		"rebuild": {
			opts: func(o *Options) { o.Spares, o.RebuildMBps = 1, oldMBps },
			start: func(t *testing.T, a *Array) {
				if err := a.FailDrive(rebuildSlot); err != nil {
					t.Fatal(err)
				}
			},
			// Chunks run one at a time in ascending order, and a chunk has
			// started once it holds its write gate (on an idle array only the
			// rebuild takes gates).
			issued: func(a *Array) int {
				p := a.RebuildProgress()
				if !p.Active {
					return pacingChunks/pacingConfig.Positions() + 1
				}
				n := p.Done + p.Lost
				if _, held := a.writeGate[int64(rebuildSlot+n*pacingConfig.Positions())]; held {
					n++
				}
				return n
			},
			retune: func(a *Array, mbps float64) error {
				tun := a.Tuning()
				tun.RebuildMBps = mbps
				return a.SetTuning(tun)
			},
			// Rebuild charges a chunk once, however many replicas it writes.
			bytes: func(a *Array) [][]float64 {
				var units [][]float64
				for c := int64(rebuildSlot); c < pacingChunks; c += int64(pacingConfig.Positions()) {
					units = append(units, []float64{chunkBytes(c)})
				}
				return units
			},
		},
		"scrub": {
			start: func(t *testing.T, a *Array) {
				if err := a.StartScrub(ScrubOptions{MBps: oldMBps, Passes: 2}); err != nil {
					t.Fatal(err)
				}
			},
			issued: func(a *Array) int {
				p := a.ScrubProgress()
				if !p.Active {
					return 2 * len(visitOrder(a))
				}
				return (p.Pass-1)*len(visitOrder(a)) + int(p.Done)
			},
			retune: func(a *Array, mbps float64) error {
				tun := a.Tuning()
				tun.ScrubMBps = mbps
				return a.SetTuning(tun)
			},
			// Two passes: the short last copy of pass one is followed by the
			// first copy of pass two, so its gap is observable.
			bytes: func(a *Array) [][]float64 {
				var units [][]float64
				for pass := 0; pass < 2; pass++ {
					for _, c := range visitOrder(a) {
						units = append(units, []float64{chunkBytes(c)})
					}
				}
				return units
			},
		},
		"recovery-scan": {
			opts: func(o *Options) {
				o.Crash = CrashModel{Enabled: true, Durability: BatteryBacked, ScanMBps: oldMBps}
			},
			start: func(t *testing.T, a *Array) {
				if err := a.Crash(); err != nil {
					t.Fatal(err)
				}
				if err := a.Recover(); err != nil {
					t.Fatal(err)
				}
			},
			// One unit is one scan event; every copy of its batch is charged
			// at that instant.
			issued: func(a *Array) int {
				return int((a.Recovery().Scanned + recoveryScanBatch - 1) / recoveryScanBatch)
			},
			retune: func(a *Array, mbps float64) error {
				tun := a.Tuning()
				tun.RecoveryScanMBps = mbps
				return a.SetTuning(tun)
			},
			bytes: func(a *Array) [][]float64 {
				var units [][]float64
				walk := visitOrder(a)
				for len(walk) > 0 {
					n := recoveryScanBatch
					if n > len(walk) {
						n = len(walk)
					}
					var batch []float64
					for _, c := range walk[:n] {
						batch = append(batch, chunkBytes(c))
					}
					units = append(units, batch)
					walk = walk[n:]
				}
				return units
			},
		},
	}
	for name, pr := range classes {
		t.Run(name, func(t *testing.T) {
			sim, a := newPacingArray(t, pr.opts)
			units := pr.bytes(a)
			pr.start(t, a)
			var at []des.Time
			for len(at) < len(units) {
				for n := pr.issued(a); len(at) < n; {
					at = append(at, sim.Now())
					if len(at) == switchAt {
						if err := pr.retune(a, newMBps); err != nil {
							t.Fatal(err)
						}
					}
				}
				if !sim.Step() {
					break
				}
			}
			if len(at) != len(units) {
				t.Fatalf("saw %d of %d paced units start", len(at), len(units))
			}
			sawShort := false
			for i := 0; i+1 < len(at); i++ {
				mbps := oldMBps
				if i >= switchAt {
					mbps = newMBps
				}
				want := at[i]
				for _, b := range units[i] {
					want += des.Time(b / mbps)
					sawShort = sawShort || b < float64(pacingUnit*disk.SectorSize)
				}
				if math.Abs(float64(at[i+1]-want)) > 1e-6 {
					t.Fatalf("unit %d -> %d: gap %.3fus, want %.3fus at %v MB/s (bytes %v)",
						i, i+1, float64(at[i+1]-at[i]), float64(want-at[i]), mbps, units[i])
				}
			}
			if !sawShort && name != "rebuild" {
				t.Fatal("no observable gap charged the short last chunk")
			}
		})
	}
}

// TestScrubInheritsTunedRate: Tuning.ScrubMBps is the rate a StartScrub
// with MBps 0 runs at.
func TestScrubInheritsTunedRate(t *testing.T) {
	_, a := newPacingArray(t, nil)
	tun := a.Tuning()
	tun.ScrubMBps = 3
	if err := a.SetTuning(tun); err != nil {
		t.Fatal(err)
	}
	if err := a.StartScrub(ScrubOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := a.Tuning().ScrubMBps; got != 3 {
		t.Fatalf("scrub started with MBps 0 runs at %v MB/s, want the tuned 3", got)
	}
}
