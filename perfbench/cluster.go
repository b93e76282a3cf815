package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/stats"
)

// cluster-outage: a closed loop in sim time on shard 0 of a 3-brick, R=2
// sharded cluster volume (bricks built as in the brick-loss experiment,
// crash model on), about half writes, with one whole-brick crash and
// recovery scripted by op count so it always lands mid-run.
const (
	clusterBricks   = 3
	clusterSlots    = 16
	clusterOps      = 40000
	clusterReadFrac = 0.5
	clusterSectors  = 8
	// clusterLinkLat is the client/brick interconnect latency (the
	// experiments' bigLinkLat), also the engine's lookahead.
	clusterLinkLat = 150 * des.Microsecond
	// clusterRetry is the client's backoff after a synchronous rejection
	// (the experiments' chaosRetry).
	clusterRetry = 2 * des.Millisecond
	// The outage: the crash is sent when this share of the ops has
	// completed, and the brick stays dark for clusterOutage of sim time,
	// well inside the breaker's probe budget.
	clusterCrashAt = 0.4
	clusterOutage  = 200 * des.Millisecond
	// clusterPoll is how often shard 0 looks for the end of backfill
	// after the recovery.
	clusterPoll = des.Millisecond
	// clusterLegDiv sizes the read-only and write-only legs of the traced
	// run: clusterOps / clusterLegDiv ops each.
	clusterLegDiv = 4
)

type clientOp struct {
	write bool
	frac  float64 // offset as a fraction of the volume
}

type clusterWorkload struct {
	seed  int64
	plan  []clientOp
	brick int // the brick that crashes
}

func (w *clusterWorkload) setup(seed int64) (float64, float64, error) {
	t0 := time.Now()
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	w.plan = make([]clientOp, clusterOps)
	for i := range w.plan {
		w.plan[i] = clientOp{write: rng.Float64() >= clusterReadFrac, frac: rng.Float64()}
	}
	w.brick = int(uint64(seed) % clusterBricks)
	_, err := w.exec(nil, 1, w.plan, true, true)
	return 0, time.Since(t0).Seconds(), err
}

// clusterRun is one execution's state. Everything the client touches is
// owned by shard 0; recoveredAt is written by the crashed brick's shard.
type clusterRun struct {
	w      *clusterWorkload
	sh     *des.Sharded
	sims   []*des.Sim
	arrs   []*core.Array
	bricks []*timedVolume
	cl     *cluster.Cluster
	vol    core.Volume // the cluster, decorated when traced
	ops    []clientOp
	outage bool
	span   int64
	reg    *obs.Registry // nil when untraced

	runNs   int64
	mallocs uint64

	next, done, failed, rejected int
	sim, rd, wr                  stats.Collector
	sloOK                        int
	last                         des.Time
	clock                        chunkClock
	crashSent                    bool
	recoverAt, recoveredAt       des.Time
	backfillDone                 des.Time
}

// exec builds a fresh engine, bricks and cluster and runs ops through it.
// build alone (no run) is the set-up sample.
func (w *clusterWorkload) exec(tr *tracer, workers int, ops []clientOp, outage, buildOnly bool) (*clusterRun, error) {
	sh := des.NewSharded(clusterBricks+1, clusterLinkLat)
	if err := sh.SetWorkers(workers); err != nil {
		return nil, err
	}
	c := &clusterRun{w: w, sh: sh, ops: ops, outage: outage, arrs: make([]*core.Array, clusterBricks)}
	if tr != nil {
		c.reg = &obs.Registry{}
	}
	c.sims = make([]*des.Sim, clusterBricks+1)
	for i := range c.sims {
		c.sims[i] = sh.Shard(i)
	}
	vols := make([]core.Volume, clusterBricks)
	for b := range c.arrs {
		a, err := core.New(c.sims[1+b], core.Options{
			Config: layout.Config{Ds: 2, Dr: 2, Dm: 2}, Policy: "rsatf", Seed: w.seed + int64(b),
			DataSectors: 1 << 17, Obs: c.reg,
			Crash: core.CrashModel{Enabled: true, Durability: core.BatteryBacked},
		})
		if err != nil {
			return nil, err
		}
		c.arrs[b] = a
		vols[b] = a
		if tr != nil {
			tv := &timedVolume{Volume: a, name: "brick", tr: tr, parent: -1}
			c.bricks = append(c.bricks, tv)
			vols[b] = tv
		}
	}
	cl, err := cluster.NewSharded(c.sims, sh.Send, clusterLinkLat, vols, cluster.Options{
		Replicas: 2, ExtentSectors: 1024, Seed: w.seed, BackfillMBps: 256,
	})
	if err != nil {
		return nil, err
	}
	c.cl, c.vol = cl, cl
	if buildOnly {
		return c, nil
	}
	var ctv *timedVolume
	if tr != nil {
		ctv = &timedVolume{Volume: cl, name: "cluster", tr: tr, parent: -1}
		c.vol = ctv
	}
	c.span = int64(cl.DataSectors() - clusterSectors)
	c.sims[0].At(0, func() {
		for i := 0; i < clusterSlots && i < len(ops); i++ {
			c.issue()
		}
	})
	m0 := mallocs()
	t0 := time.Now()
	c.clock.start()
	sh.Run()
	c.runNs = time.Since(t0).Nanoseconds()
	c.mallocs = mallocs() - m0
	return c, nil
}

func (c *clusterRun) issue() {
	if c.next >= len(c.ops) {
		return
	}
	k := c.next
	c.next++
	c.attempt(k, c.sims[0].Now())
}

// attempt submits op k through the router. A synchronous rejection means
// every replica of the range is down; the slot retries after a backoff.
func (c *clusterRun) attempt(k int, submitAt des.Time) {
	o := c.ops[k]
	op := core.Read
	if o.write {
		op = core.Write
	}
	err := c.vol.Submit(op, int64(o.frac*float64(c.span)), clusterSectors, false, func(r core.Result) {
		c.complete(op, submitAt, r.Failed)
	})
	if err != nil {
		c.rejected++
		c.sims[0].After(clusterRetry, func() { c.attempt(k, submitAt) })
	}
}

func (c *clusterRun) complete(op core.Op, submitAt des.Time, failed bool) {
	now := c.sims[0].Now()
	c.clock.done()
	c.done++
	if now > c.last {
		c.last = now
	}
	if failed {
		c.failed++
	} else {
		lat := now - submitAt
		c.sim.Add(lat)
		if op == core.Read {
			c.rd.Add(lat)
		} else {
			c.wr.Add(lat)
		}
		if lat <= sloBound {
			c.sloOK++
		}
	}
	if c.outage {
		c.script(now)
	}
	c.issue()
}

// script sends the crash and the recovery to the brick's shard once enough
// ops have completed, then polls for the end of backfill. The router is
// never told: its breaker and probes find the outage and the recovery.
func (c *clusterRun) script(now des.Time) {
	if c.crashSent || c.done < int(clusterCrashAt*float64(len(c.ops))) {
		return
	}
	c.crashSent = true
	b := c.w.brick
	a := c.arrs[b]
	c.sh.Send(0, 1+b, now+clusterLinkLat, func() {
		if err := a.Crash(); err != nil {
			panic(fmt.Sprintf("cluster-outage: crash brick %d: %v", b, err))
		}
	})
	c.recoverAt = now + clusterLinkLat + clusterOutage
	c.sh.Send(0, 1+b, c.recoverAt, func() {
		if err := a.Recover(); err != nil {
			panic(fmt.Sprintf("cluster-outage: recover brick %d: %v", b, err))
		}
		c.recoveredAt = c.sims[1+b].Now()
	})
	c.sims[0].At(c.recoverAt, c.poll)
}

func (c *clusterRun) poll() {
	if c.cl.DivergencePending() == 0 {
		c.backfillDone = c.sims[0].Now()
		return
	}
	if c.sims[0].Now()-c.recoverAt < 100*des.Second {
		c.sims[0].After(clusterPoll, c.poll)
	}
}

func (w *clusterWorkload) round(tr *tracer, workers int) (*roundResult, error) {
	c, err := w.exec(tr, workers, w.plan, true, false)
	if err != nil {
		return nil, err
	}
	runNs := c.runNs
	res := &roundResult{
		hostSec: float64(runNs) / 1e9, mallocs: c.mallocs,
		ops: c.done - c.failed, attempted: c.done + c.rejected, failed: c.failed + c.rejected,
		hostUs: c.clock.us, events: c.sh.Processed(), sim: c.sim, sloOK: c.sloOK, simSpan: c.last,
		extra: c,
	}
	ctr := c.cl.Counters()
	rec := ""
	for b, a := range c.arrs {
		rc := a.Recovery()
		rec += fmt.Sprintf(" b%d[%+v %s]", b, rc, c.cl.State(b))
	}
	res.digest = fmt.Sprintf("cluster ops=%d done=%d failed=%d rejected=%d p50=%v p99=%v mean=%v rd=%v/%v wr=%v/%v slo=%d last=%v ctr=%+v pending=%d idle=%v events=%d recovered=%v backfilled=%v%s",
		len(c.ops), c.done, c.failed, c.rejected, c.sim.Percentile(50), c.sim.Percentile(99), c.sim.Mean(),
		c.rd.Percentile(50), c.rd.Percentile(99), c.wr.Percentile(50), c.wr.Percentile(99),
		c.sloOK, c.last, ctr, c.cl.DivergencePending(), c.cl.Idle(), res.events, c.recoveredAt, c.backfillDone, rec)

	if tr != nil {
		l := map[string]float64{}
		ctv := c.vol.(*timedVolume)
		var brickNs, brickCalls int64
		for _, tv := range c.bricks {
			brickNs += tv.totalNs()
			brickCalls += tv.calls
		}
		l["host:cluster.submit_ns"] = float64(ctv.totalNs()) / float64(ctv.calls)
		l["host:cluster.read_submit_ns"] = float64(ctv.ns[core.Read]) / float64(ctv.n[core.Read])
		l["host:cluster.write_submit_ns"] = float64(ctv.ns[core.Write]) / float64(ctv.n[core.Write])
		l["host:core.submit_ns"] = float64(brickNs) / float64(brickCalls)
		l["host:des.run_self_s"] = float64(runNs-ctv.totalNs()-brickNs) / 1e9
		l["cluster.replica_ios_per_op"] = float64(brickCalls) / float64(res.ops)
		l["cluster.read_failovers"] = float64(ctr.ReadFailovers)
		l["cluster.trips"] = float64(ctr.Trips)
		l["cluster.probes"] = float64(ctr.Probes)
		l["cluster.diverged"] = float64(ctr.Diverged)
		l["cluster.backfilled"] = float64(ctr.Backfilled)
		l["cluster.abandoned"] = float64(ctr.Abandoned)
		l["cluster.backfill_sim_s"] = (c.backfillDone - c.recoveredAt).Seconds()
		l["cluster.read_sim_us_p50"] = float64(c.rd.Percentile(50))
		l["cluster.read_sim_us_p99"] = float64(c.rd.Percentile(99))
		l["cluster.write_sim_us_p50"] = float64(c.wr.Percentile(50))
		l["cluster.write_sim_us_p99"] = float64(c.wr.Percentile(99))
		// The engine leaves each shard's clock at its last event: the
		// drives' busy window ends at the latest brick's.
		var drained des.Time
		for _, s := range c.sims[1:] {
			if s.Now() > drained {
				drained = s.Now()
			}
		}
		arrayLayers(l, c.arrs, c.reg, res.ops, drained)
		// The write-path split: the same slots and ops, all reads then all
		// writes, without the outage.
		for _, leg := range []struct {
			key   string
			write bool
		}{{"host:cluster.read_only_host_us_per_op", false}, {"host:cluster.write_only_host_us_per_op", true}} {
			ops := make([]clientOp, len(w.plan)/clusterLegDiv)
			for i := range ops {
				ops[i] = clientOp{write: leg.write, frac: w.plan[i].frac}
			}
			lc, err := w.exec(nil, workers, ops, false, false)
			if err != nil {
				return nil, err
			}
			l[leg.key] = float64(lc.runNs) / 1e3 / float64(lc.done)
		}
		res.layers = l
	}
	return res, nil
}

func (w *clusterWorkload) check(r *roundResult) error {
	c := r.extra.(*clusterRun)
	ctr := c.cl.Counters()
	switch {
	case c.done != len(c.ops):
		return fmt.Errorf("cluster-outage: %d/%d ops completed", c.done, len(c.ops))
	case c.failed+c.rejected != 0:
		return fmt.Errorf("cluster-outage: %d failed and %d rejected ops at R=2", c.failed, c.rejected)
	case ctr.Diverged != ctr.Backfilled+ctr.Abandoned:
		return fmt.Errorf("cluster-outage: divergence does not reconcile: %+v", ctr)
	case c.cl.DivergencePending() != 0 || !c.cl.Idle():
		return fmt.Errorf("cluster-outage: not settled at drain: %d pending, idle %v", c.cl.DivergencePending(), c.cl.Idle())
	case ctr.Trips < 1 || ctr.Backfilled < 1:
		return fmt.Errorf("cluster-outage: the outage did not show: %+v", ctr)
	case c.backfillDone == 0:
		return fmt.Errorf("cluster-outage: backfill did not finish within 100 sim-s of the recovery")
	}
	return nil
}
