package clock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)

func TestSimulatedNow(t *testing.T) {
	c := NewSimulated(epoch)
	if got := c.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
}

func TestSimulatedAdvance(t *testing.T) {
	c := NewSimulated(epoch)
	c.Advance(90 * time.Minute)
	want := epoch.Add(90 * time.Minute)
	if got := c.Now(); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestSimulatedAdvanceBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative Advance")
		}
	}()
	NewSimulated(epoch).Advance(-time.Second)
}

func TestSimulatedAdvanceToBackwardsPanics(t *testing.T) {
	c := NewSimulated(epoch)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on AdvanceTo before now")
		}
	}()
	c.AdvanceTo(epoch.Add(-time.Hour))
}

func TestConcurrentAdvanceAndNow(t *testing.T) {
	c := NewSimulated(epoch)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = c.Now()
			}
		}()
	}
	for j := 0; j < 100; j++ {
		c.Advance(time.Minute)
	}
	wg.Wait()
	want := epoch.Add(100 * time.Minute)
	if got := c.Now(); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestRealClock(t *testing.T) {
	before := time.Now()
	got := Real{}.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestMonthOf(t *testing.T) {
	m := MonthOf(time.Date(2019, time.May, 17, 23, 4, 0, 0, time.UTC))
	if m.Year != 2019 || m.Mon != time.May {
		t.Fatalf("MonthOf = %+v", m)
	}
}

func TestMonthString(t *testing.T) {
	m := Month{Year: 2018, Mon: time.July}
	if m.String() != "2018-07" {
		t.Fatalf("String() = %q, want 2018-07", m.String())
	}
}

func TestMonthNextAcrossYear(t *testing.T) {
	m := Month{Year: 2018, Mon: time.December}.Next()
	if m.Year != 2019 || m.Mon != time.January {
		t.Fatalf("Next() = %+v", m)
	}
}

func TestMonthRangePaperStudyPeriod(t *testing.T) {
	// The paper's passive dataset spans January 2018 - March 2020: 27 months.
	ms := MonthRange(Month{2018, time.January}, Month{2020, time.March})
	if len(ms) != 27 {
		t.Fatalf("study period months = %d, want 27", len(ms))
	}
	if ms[0].String() != "2018-01" || ms[26].String() != "2020-03" {
		t.Fatalf("range endpoints wrong: %v .. %v", ms[0], ms[len(ms)-1])
	}
}

func TestMonthRangeEmpty(t *testing.T) {
	if ms := MonthRange(Month{2020, time.March}, Month{2018, time.January}); ms != nil {
		t.Fatalf("inverted range = %v, want nil", ms)
	}
}

func TestMonthIndex(t *testing.T) {
	base := Month{2018, time.January}
	cases := []struct {
		m    Month
		want int
	}{
		{Month{2018, time.January}, 0},
		{Month{2018, time.December}, 11},
		{Month{2019, time.January}, 12},
		{Month{2020, time.March}, 26},
		{Month{2017, time.December}, -1},
	}
	for _, c := range cases {
		if got := c.m.Index(base); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestSortMonths(t *testing.T) {
	ms := []Month{{2019, time.March}, {2018, time.January}, {2018, time.December}}
	SortMonths(ms)
	if ms[0].String() != "2018-01" || ms[1].String() != "2018-12" || ms[2].String() != "2019-03" {
		t.Fatalf("SortMonths = %v", ms)
	}
}

// Property: MonthOf(m.Start()) == m for any valid month.
func TestMonthRoundTripProperty(t *testing.T) {
	f := func(yearOff uint8, monIdx uint8) bool {
		m := Month{Year: 2000 + int(yearOff%50), Mon: time.Month(monIdx%12) + 1}
		return MonthOf(m.Start()) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Index is the inverse of repeated Next.
func TestMonthIndexNextProperty(t *testing.T) {
	f := func(steps uint8) bool {
		base := Month{2018, time.January}
		m := base
		for i := 0; i < int(steps%60); i++ {
			m = m.Next()
		}
		return m.Index(base) == int(steps%60)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
