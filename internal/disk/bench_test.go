package disk

import (
	"math/rand"
	"testing"

	"repro/internal/des"
)

// BenchmarkDiskService is the bottom rung of the layer ladder: one
// positioning-time estimate, the call a position-aware scheduler makes for
// every queued request and replica at every pick. The requests are the
// array's shapes — 8 to 64 sectors anywhere in the logical space, some of
// them crossing a track or cylinder boundary — so the per-track loop runs
// once or twice.
func BenchmarkDiskService(b *testing.B) {
	d := ST39133LWV().MustNew()
	g := d.Geom
	rng := rand.New(rand.NewSource(1))
	reqs := make([]Request, 256)
	for i := range reqs {
		cyl := rng.Intn(g.LogicalCylinders())
		reqs[i] = Request{
			Start: Chs{Cyl: cyl, Head: rng.Intn(g.Heads), Sector: rng.Intn(g.SPTOf(cyl))},
			Count: 8 + rng.Intn(57),
			Write: i%3 == 0,
		}
	}
	st := State{Cyl: g.LogicalCylinders() / 4}
	b.ReportAllocs()
	b.ResetTimer()
	var sum des.Time
	for i := 0; i < b.N; i++ {
		tm, err := d.Service(st, reqs[i%len(reqs)], des.Time(i))
		if err != nil {
			b.Fatal(err)
		}
		sum += tm.Total()
	}
	if sum <= 0 {
		b.Fatal("no service time")
	}
}
