package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

// tpcc-replay: the paper's TPC-C trace (Table 3 profile) replayed open
// loop in sim time against the 36-disk 9x4x1 SR-Array under RSATF, with
// the prototype's head-position calibration on (the calib layer runs).
const (
	// tpccIOs sizes the synthesized trace: its duration is tpccIOs at the
	// profile's nominal rate (about 64k records after retuning).
	tpccIOs = 80000
	// tpccScale compresses the timestamps into Figure 10's queueing range.
	// At x8 the calibrated array tips into a metastable regime on some
	// seeds (rotation misses feed queueing, p99 jumps from ~17 ms to
	// 300-700 ms); x7 is the fastest rate that stays out of it.
	tpccScale = 7
)

type tpccWorkload struct {
	seed int64
	tr   *trace.Trace
}

func (w *tpccWorkload) setup(seed int64) (float64, float64, error) {
	w.seed = seed
	t0 := time.Now()
	p := tracegen.TPCC(seed)
	p = p.WithDuration(des.Time(float64(tpccIOs) / p.MeanIOPS * float64(des.Second)))
	w.tr = tracegen.Generate(p).Scale(tpccScale)
	gen := time.Since(t0).Seconds()
	_, _, err := w.build(nil)
	return gen, time.Since(t0).Seconds(), err
}

// build makes a fresh array; calibration bootstrap runs inside core.New.
func (w *tpccWorkload) build(reg *obs.Registry) (*des.Sim, *core.Array, error) {
	sim := des.New()
	a, err := core.New(sim, core.Options{
		Config: layout.SRArray(9, 4), Policy: "rsatf", DataSectors: w.tr.DataSectors,
		Seed: w.seed, Prototype: true, Obs: reg,
	})
	return sim, a, err
}

func (w *tpccWorkload) round(tr *tracer, _ int) (*roundResult, error) {
	var reg *obs.Registry
	if tr != nil {
		reg = &obs.Registry{}
	}
	sim, a, err := w.build(reg)
	if err != nil {
		return nil, err
	}
	var vol core.Volume = a
	var tv *timedVolume
	runSpan := -1
	if tr != nil {
		runSpan = tr.add("des.Step-loop", tr.now(), 0, -1, 0)
		tv = &timedVolume{Volume: a, name: "core", tr: tr, parent: runSpan}
		vol = tv
	}

	res := &roundResult{}
	recs := w.tr.Records
	base := sim.Now() // calibration bootstrap has already advanced the clock
	var last des.Time
	var clock chunkClock
	finished := 0
	onDone := func(r core.Result) {
		clock.done()
		finished++
		if r.Failed {
			res.failed++
		}
		if !r.Async {
			res.sim.Add(r.Latency())
			if !r.Failed && r.Latency() <= sloBound {
				res.sloOK++
			}
		}
		if r.Done > last {
			last = r.Done
		}
	}
	// Arrivals self-schedule one ahead, exactly as workload.Replay does, so
	// the event order (and every sim figure) matches it.
	next := 0
	var submitErr error
	var arrive func()
	schedule := func() {
		if next >= len(recs) {
			return
		}
		at := base + recs[next].At
		if at < sim.Now() {
			at = sim.Now()
		}
		sim.At(at, arrive)
	}
	arrive = func() {
		r := recs[next]
		next++
		op := core.Read
		if r.Write {
			op = core.Write
		}
		count := r.Count
		if count < 1 {
			count = 1
		}
		off := r.Off
		if off+int64(count) > a.DataSectors() {
			off = a.DataSectors() - int64(count)
		}
		if err := vol.Submit(op, off, count, r.Async, onDone); err != nil && submitErr == nil {
			submitErr = err
		}
		schedule()
	}
	schedule()

	m0 := mallocs()
	t0 := time.Now()
	clock.start()
	for finished < len(recs) && submitErr == nil {
		if !sim.Step() {
			return nil, fmt.Errorf("tpcc-replay: replay stalled at %d/%d", finished, len(recs))
		}
	}
	runNs := time.Since(t0).Nanoseconds()
	res.hostSec = float64(runNs) / 1e9
	res.mallocs = mallocs() - m0
	if submitErr != nil {
		return nil, fmt.Errorf("tpcc-replay: submit: %w", submitErr)
	}
	res.ops = finished
	res.attempted = len(recs)
	res.hostUs = clock.us
	res.events = sim.Processed
	res.simSpan = last - base

	res.digest = fmt.Sprintf("tpcc recs=%d done=%d failed=%d p50=%v p99=%v mean=%v slo=%d last=%v events=%d misses=%d dispatches=%d refreads=%d",
		len(recs), finished, res.failed, res.sim.Percentile(50), res.sim.Percentile(99), res.sim.Mean(),
		res.sloOK, last, sim.Processed, a.RotationMisses, a.Dispatches, a.RefReads)

	if tr != nil {
		tr.end(runSpan)
		l := map[string]float64{}
		l["host:core.submit_ns"] = float64(tv.totalNs()) / float64(tv.calls)
		l["host:des.run_self_s"] = float64(runNs-tv.totalNs()) / 1e9
		arrayLayers(l, []*core.Array{a}, reg, finished, res.simSpan)
		miss, _, _, _, _ := a.Accuracy().Report(a.RotationPeriod())
		l["calib.miss_frac"] = miss
		res.layers = l
	}
	return res, nil
}

// check replays the same trace through workload.Replay on a fresh array:
// every record must complete, the run must stay unsaturated, and the
// benchmark's own sim percentiles must equal Replay's.
func (w *tpccWorkload) check(r *roundResult) error {
	sim, a, err := w.build(nil)
	if err != nil {
		return err
	}
	ref, err := workload.Replay(sim, a, w.tr)
	if err != nil {
		return fmt.Errorf("tpcc-replay: reference replay: %w", err)
	}
	fmt.Printf("tpcc-replay: reference replay max drive queue %d (saturation at %d)\n", ref.MaxQueue, workload.SaturationQueue)
	switch {
	case ref.Saturated:
		return fmt.Errorf("tpcc-replay: saturated (max drive queue %d)", ref.MaxQueue)
	case ref.Completed != len(w.tr.Records) || r.ops != len(w.tr.Records):
		return fmt.Errorf("tpcc-replay: %d/%d records completed (reference %d)", r.ops, len(w.tr.Records), ref.Completed)
	case r.failed != 0:
		return fmt.Errorf("tpcc-replay: %d records failed", r.failed)
	case ref.Sync.Percentile(50) != r.sim.Percentile(50) || ref.Sync.Percentile(99) != r.sim.Percentile(99):
		return fmt.Errorf("tpcc-replay: sim p50/p99 %v/%v differ from workload.Replay's %v/%v",
			r.sim.Percentile(50), r.sim.Percentile(99), ref.Sync.Percentile(50), ref.Sync.Percentile(99))
	}
	return nil
}

// arrayLayers adds the array-level per-layer metrics (core breakdown, bus,
// disk, sched) summed over the arrays. span is the sim time the drives
// could be busy in: up to the last event the run executed.
func arrayLayers(l map[string]float64, arrs []*core.Array, reg *obs.Registry, ops int, span des.Time) {
	var bd core.Breakdown
	var cmds int64
	var busy des.Time
	var disks int
	var sheds int64
	for _, a := range arrs {
		b := a.BreakdownReport()
		bd.N += b.N
		bd.Queue += b.Queue
		bd.Overhead += b.Overhead
		bd.Seek += b.Seek
		bd.Rotate += b.Rotate
		bd.Transfer += b.Transfer
		for i := 0; i < a.Disks(); i++ {
			cmds += a.Commands(i)
			busy += a.BusyTime(i)
		}
		disks += a.Disks()
		s := a.Sheds()
		sheds += s.Overload + s.Deadline
	}
	q, o, sk, rot, tx := bd.Means()
	l["core.sim_queue_us"] = float64(q)
	l["core.sim_overhead_us"] = float64(o)
	l["core.sim_seek_us"] = float64(sk)
	l["core.sim_rotate_us"] = float64(rot)
	l["core.sim_transfer_us"] = float64(tx)
	l["core.sheds"] = float64(sheds)
	l["bus.commands_per_op"] = float64(cmds) / float64(ops)
	l["disk.busy_frac"] = float64(busy) / (float64(disks) * float64(span))

	var picks, qsum, qn int64
	var wait, rwait, wwait, rsvc, wsvc obs.Hist
	for _, rec := range reg.Recorders() {
		for i := 0; i < rec.Drives(); i++ {
			d := rec.Drive(i)
			picks += d.Picks
			qsum += d.QueueDepth.Sum
			qn += d.QueueDepth.Samples
			fr, fw := &d.Wait[obs.Foreground][obs.OpRead], &d.Wait[obs.Foreground][obs.OpWrite]
			addHist(&wait, fr)
			addHist(&wait, fw)
			addHist(&rwait, fr)
			addHist(&wwait, fw)
			addHist(&rsvc, &d.Service[obs.Foreground][obs.OpRead])
			addHist(&wsvc, &d.Service[obs.Foreground][obs.OpWrite])
		}
	}
	l["sched.picks_per_op"] = float64(picks) / float64(ops)
	if qn > 0 {
		l["sched.queue_at_pick"] = float64(qsum) / float64(qn)
	}
	l["sched.wait_us_p99"] = float64(wait.QuantileUS(0.99))
	l["sched.read_wait_us_p99"] = float64(rwait.QuantileUS(0.99))
	l["sched.write_wait_us_p99"] = float64(wwait.QuantileUS(0.99))
	l["sched.read_wait_us_mean"] = rwait.MeanUS()
	l["sched.write_wait_us_mean"] = wwait.MeanUS()
	l["disk.read_service_us_p99"] = float64(rsvc.QuantileUS(0.99))
	l["disk.write_service_us_p99"] = float64(wsvc.QuantileUS(0.99))
	l["disk.read_service_us_mean"] = rsvc.MeanUS()
	l["disk.write_service_us_mean"] = wsvc.MeanUS()
}

func addHist(dst, src *obs.Hist) {
	dst.Count += src.Count
	dst.SumUS += src.SumUS
	for i, n := range src.Buckets {
		dst.Buckets[i] += n
	}
}
