package core

import (
	"fmt"

	"repro/internal/des"
)

// Default pacing rates of the background classes, each selected by a 0 in
// its Options/Tuning field and resolved by Tuning.Effective.
const (
	// DefaultRebuildMBps paces hot-spare reconstruction.
	DefaultRebuildMBps = 8.0
	// DefaultScrubMBps paces the scrubber: gentle enough to hide under
	// foreground traffic, fast enough to cover a prototype-sized volume in
	// minutes of simulated time.
	DefaultScrubMBps = 4.0
	// DefaultRecoveryScanMBps paces the post-crash divergence scan. The
	// scan reads metadata (content versions / checksum summaries), not
	// data, so it runs well above scrub rates.
	DefaultRecoveryScanMBps = 32.0
)

// Tuning is the runtime-adjustable slice of Options — the actuators an SLO
// controller (or an operator) may step while the array is live: hedging
// aggressiveness, admission depth, and the pacing of every class of
// background work. Each field keeps the semantics of its Options
// counterpart (0 selects the documented default / adaptive mode); setters
// validate exactly like New, so a live array can never be tuned into a
// configuration construction would have rejected.
type Tuning struct {
	// HedgeAfter is the hedged-read delay (Options.HedgeAfter): 0 means
	// adaptive p99-derived, positive pins it. Ignored unless hedging was
	// enabled at construction.
	HedgeAfter des.Time
	// MaxQueueDepth is the admission-control shed depth
	// (Options.MaxQueueDepth); 0 disables shedding.
	MaxQueueDepth int
	// RebuildMBps paces hot-spare reconstruction — an active rebuild
	// re-paces from its next chunk. 0 means DefaultRebuildMBps.
	RebuildMBps float64
	// ScrubMBps paces the background scrubber — the active pass re-paces
	// from its next chunk, and future StartScrub calls with MBps 0 inherit
	// it. 0 means DefaultScrubMBps.
	ScrubMBps float64
	// RecoveryScanMBps paces the post-crash divergence scan — an active
	// scan re-paces from its next batch. 0 means DefaultRecoveryScanMBps.
	RecoveryScanMBps float64
}

// Effective returns t with every pacing rate left at 0 resolved to its
// default: the rates background work actually runs at.
func (t Tuning) Effective() Tuning {
	if t.RebuildMBps == 0 {
		t.RebuildMBps = DefaultRebuildMBps
	}
	if t.ScrubMBps == 0 {
		t.ScrubMBps = DefaultScrubMBps
	}
	if t.RecoveryScanMBps == 0 {
		t.RecoveryScanMBps = DefaultRecoveryScanMBps
	}
	return t
}

// rates resolves the configured pacing rates: what a rebuild, a scrub
// started with MBps 0, or a recovery scan starting now runs at.
func (a *Array) rates() Tuning {
	return Tuning{
		RebuildMBps:      a.opts.RebuildMBps,
		ScrubMBps:        a.opts.Scrub.MBps,
		RecoveryScanMBps: a.opts.Crash.ScanMBps,
	}.Effective()
}

// Tuning snapshots the array's current actuator settings. The returned
// value round-trips through SetTuning unchanged.
func (a *Array) Tuning() Tuning {
	t := Tuning{
		HedgeAfter:       a.opts.HedgeAfter,
		MaxQueueDepth:    a.opts.MaxQueueDepth,
		RebuildMBps:      a.rates().RebuildMBps,
		ScrubMBps:        a.opts.Scrub.MBps,
		RecoveryScanMBps: a.opts.Crash.ScanMBps,
	}
	if s := a.scrub; s != nil && !s.done {
		t.ScrubMBps = s.pace.MBps
	}
	if s := a.recScan; s != nil && !s.done {
		t.RecoveryScanMBps = s.pace.MBps
	}
	return t
}

// SetTuning applies t, re-pacing any background work already in flight
// from its next charge: the scrubber's next verify read, the recovery
// scan's next copy, the rebuild's next chunk. Hedging and admission
// control change at the next submit. Invalid values are rejected atomically (nothing is
// applied).
func (a *Array) SetTuning(t Tuning) error {
	if t.HedgeAfter < 0 {
		return fmt.Errorf("core: negative hedge delay %v", t.HedgeAfter)
	}
	if t.MaxQueueDepth < 0 {
		return fmt.Errorf("core: negative max queue depth %d", t.MaxQueueDepth)
	}
	if t.RebuildMBps < 0 || t.ScrubMBps < 0 || t.RecoveryScanMBps < 0 {
		return fmt.Errorf("core: negative background bandwidth in %+v", t)
	}
	a.opts.HedgeAfter = t.HedgeAfter
	a.opts.MaxQueueDepth = t.MaxQueueDepth
	a.opts.RebuildMBps = t.RebuildMBps
	a.opts.Scrub.MBps = t.ScrubMBps
	a.opts.Crash.ScanMBps = t.RecoveryScanMBps
	r := a.rates()
	if st := a.rebuild; st != nil {
		st.pace.MBps = r.RebuildMBps
	}
	if s := a.scrub; s != nil && !s.done {
		s.pace.MBps = r.ScrubMBps
	}
	if s := a.recScan; s != nil && !s.done {
		s.pace.MBps = r.RecoveryScanMBps
	}
	return nil
}
