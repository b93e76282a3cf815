package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
)

// span is one timed call at a layer boundary. Parent is the index of the
// enclosing span in the tracer's list, or -1; Op is the benchmark's op id
// (0 where the seam cannot see it: a brick submit in the sharded cluster
// happens in a later event than the client op that caused it).
type span struct {
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps sampled spans in memory for the traced rounds and writes
// them once at the end. It is shared by goroutines (HTTP handlers, epoch
// workers), hence the lock; spans are sampled, so the lock is cold.
type tracer struct {
	base  time.Time
	round int
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is nanoseconds since the tracer was created.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// sampled reports whether op's spans are kept.
func sampled(op int64) bool { return op%spanSampleEvery == 0 }

// add records a span and returns its index (for children).
func (t *tracer) add(name string, start, end int64, parent int, op int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Round: t.round, Start: start, End: end, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes a span opened by add with a zero end.
func (t *tracer) end(i int) {
	now := t.now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// timedVolume is a core.Volume decorator that times and counts the
// submit calls made into the volume it wraps. One instance is used from
// one goroutine at a time (the simulation that owns the volume).
type timedVolume struct {
	core.Volume
	name string
	tr   *tracer
	// parent is the span index the volume's spans hang off (-1 for none).
	parent int

	calls   int64 // logical ops submitted (batch ops counted singly)
	batches int64 // SubmitBatch/SubmitBatchErrs calls
	ns      [2]int64
	n       [2]int64 // calls per op (core.Read, core.Write)
}

func (v *timedVolume) totalNs() int64 { return v.ns[0] + v.ns[1] }

func (v *timedVolume) Submit(op core.Op, off int64, count int, async bool, done func(core.Result)) error {
	t0 := v.tr.now()
	err := v.Volume.Submit(op, off, count, async, done)
	t1 := v.tr.now()
	v.calls++
	v.ns[op] += t1 - t0
	v.n[op]++
	if sampled(v.calls) {
		v.tr.add(v.name+".Submit", t0, t1, v.parent, v.calls)
	}
	return err
}

func (v *timedVolume) SubmitBatch(ops []core.BatchOp) (int, error) {
	t0 := v.tr.now()
	n, err := v.Volume.SubmitBatch(ops)
	v.batch(ops, t0, v.tr.now())
	return n, err
}

func (v *timedVolume) SubmitBatchErrs(ops []core.BatchOp) ([]error, int) {
	t0 := v.tr.now()
	errs, n := v.Volume.SubmitBatchErrs(ops)
	v.batch(ops, t0, v.tr.now())
	return errs, n
}

// batch books a batch call, splitting its time evenly over its ops.
func (v *timedVolume) batch(ops []core.BatchOp, t0, t1 int64) {
	v.batches++
	if len(ops) == 0 {
		return
	}
	share := (t1 - t0) / int64(len(ops))
	for _, o := range ops {
		v.calls++
		v.ns[o.Op] += share
		v.n[o.Op]++
	}
	if sampled(v.batches) {
		v.tr.add(v.name+".SubmitBatchErrs", t0, t1, v.parent, 0)
	}
}
