// Package clock provides virtual time for the IoTLS simulation.
//
// Every component in the testbed (devices, cloud servers, certificates,
// the capture store) reads time through a Clock so that two years of
// longitudinal traffic can be simulated in milliseconds, and so that
// tests are fully deterministic.
package clock

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the simulation.
type Clock interface {
	// Now returns the current virtual (or real) time.
	Now() time.Time
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Simulated is a manually-advanced virtual clock. The zero value is not
// usable; construct with NewSimulated. Simulated is safe for concurrent
// use.
type Simulated struct {
	mu  sync.RWMutex
	now time.Time
}

// NewSimulated returns a Simulated clock starting at the given instant.
func NewSimulated(start time.Time) *Simulated {
	return &Simulated{now: start}
}

// Now implements Clock.
func (s *Simulated) Now() time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.now
}

// Advance moves the clock forward by d. Advancing by a negative
// duration panics: virtual time never rewinds.
func (s *Simulated) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: cannot advance simulated clock backwards")
	}
	s.AdvanceTo(s.Now().Add(d))
}

// AdvanceTo moves the clock forward to t. Moving backwards panics.
func (s *Simulated) AdvanceTo(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Before(s.now) {
		panic(fmt.Sprintf("clock: AdvanceTo(%v) before current time %v", t, s.now))
	}
	s.now = t
}

// Month identifies a calendar month, the unit of aggregation used by all
// longitudinal analyses in the paper (Figures 1-3).
type Month struct {
	Year int
	Mon  time.Month
}

// MonthOf returns the Month containing t (in UTC).
func MonthOf(t time.Time) Month {
	u := t.UTC()
	return Month{Year: u.Year(), Mon: u.Month()}
}

// Start returns the first instant of the month in UTC.
func (m Month) Start() time.Time {
	return time.Date(m.Year, m.Mon, 1, 0, 0, 0, 0, time.UTC)
}

// Next returns the following calendar month.
func (m Month) Next() Month {
	return MonthOf(m.Start().AddDate(0, 1, 0))
}

// Before reports whether m precedes o.
func (m Month) Before(o Month) bool {
	if m.Year != o.Year {
		return m.Year < o.Year
	}
	return m.Mon < o.Mon
}

// Index returns the number of months between m and base (m - base).
// A negative result means m precedes base.
func (m Month) Index(base Month) int {
	return (m.Year-base.Year)*12 + int(m.Mon) - int(base.Mon)
}

// String renders the month as "2018-01".
func (m Month) String() string {
	return fmt.Sprintf("%04d-%02d", m.Year, int(m.Mon))
}

// MonthRange returns every month from first through last, inclusive.
// It returns nil if last precedes first.
func MonthRange(first, last Month) []Month {
	if last.Before(first) {
		return nil
	}
	var out []Month
	for m := first; !last.Before(m); m = m.Next() {
		out = append(out, m)
	}
	return out
}

// SortMonths sorts months chronologically in place.
func SortMonths(ms []Month) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Before(ms[j]) })
}
