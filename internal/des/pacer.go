package des

// Pacer spaces one class of background work to a bandwidth cap on the
// virtual clock: each unit of work is charged the time its bytes take at
// MBps, and the next unit may not start before that charge has elapsed.
// The caller decides where a unit is charged (when it is scheduled, issued
// or resolved); the pacer owns the next-allowed instant and the
// bytes-to-time conversion. The zero value with MBps set is ready at once.
type Pacer struct {
	// MBps is the bandwidth cap; a change applies from the next Charge.
	MBps float64
	next Time
}

// Ready reports the earliest instant, no earlier than now, at which the
// next unit may start.
func (p *Pacer) Ready(now Time) Time {
	if p.next < now {
		return now
	}
	return p.next
}

// Charge books a unit of sectors starting at Ready(now) and returns that
// start; the next unit may follow Gap(sectors) later.
func (p *Pacer) Charge(now Time, sectors int64) Time {
	at := p.Ready(now)
	p.next = at + p.Gap(sectors)
	return at
}

// Gap is the time sectors (512 bytes each) take at MBps: bytes over MB/s
// is bytes over bytes-per-µs, so the result is in µs.
func (p *Pacer) Gap(sectors int64) Time {
	return Time(float64(sectors*512) / p.MBps)
}
