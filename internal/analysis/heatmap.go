// Package analysis computes every table and figure of the paper's
// evaluation from measurement outputs alone: the passive capture store
// (Figures 1-3, Table 8, the §5.1 statistics), the interception and
// downgrade reports (Tables 5-7), the root-store exploration reports
// (Table 9, Figure 4), and the fingerprint graph (Figure 5). Static
// methodology tables (1, 2, 3, 4) are rendered from the corresponding
// substrate packages.
package analysis

import (
	"fmt"
	"strings"

	"repro/internal/clock"
)

// Heatmap is a device-by-month grid of fractions in [0, 1] — the visual
// primitive of Figures 1-3.
type Heatmap struct {
	Title  string
	Months []clock.Month
	// Rows maps row label -> per-month fraction; -1 marks "no traffic"
	// (the gray cells).
	Rows map[string][]float64
	// RowOrder fixes presentation order.
	RowOrder []string
}

// NewHeatmap builds an empty heatmap over the month range.
func NewHeatmap(title string, months []clock.Month) *Heatmap {
	return &Heatmap{Title: title, Months: months, Rows: make(map[string][]float64)}
}

// Row returns (allocating) the row for label, initialised to -1.
func (h *Heatmap) Row(label string) []float64 {
	if r, ok := h.Rows[label]; ok {
		return r
	}
	r := make([]float64, len(h.Months))
	for i := range r {
		r[i] = -1
	}
	h.Rows[label] = r
	h.RowOrder = append(h.RowOrder, label)
	return r
}

// Set stores a fraction for (label, month).
func (h *Heatmap) Set(label string, m clock.Month, frac float64) {
	idx := m.Index(h.Months[0])
	if idx < 0 || idx >= len(h.Months) {
		return
	}
	h.Row(label)[idx] = frac
}

// Get returns the fraction for (label, month), -1 when absent.
func (h *Heatmap) Get(label string, m clock.Month) float64 {
	r, ok := h.Rows[label]
	if !ok {
		return -1
	}
	idx := m.Index(h.Months[0])
	if idx < 0 || idx >= len(r) {
		return -1
	}
	return r[idx]
}

// shades maps fractions to display characters: '.' for zero, digits for
// deciles, '#' for 1.0, ' ' for no traffic.
func shade(frac float64) byte {
	switch {
	case frac < 0:
		return ' '
	case frac == 0:
		return '.'
	case frac >= 0.995:
		return '#'
	default:
		d := int(frac * 10)
		if d > 9 {
			d = 9
		}
		return byte('0' + d)
	}
}

// Render draws the heatmap as fixed-width text.
func (h *Heatmap) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", h.Title)
	labelW := 0
	for _, l := range h.RowOrder {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	// Header: month index markers every 6 months.
	fmt.Fprintf(&b, "%*s ", labelW, "")
	for i, m := range h.Months {
		if i%6 == 0 {
			fmt.Fprintf(&b, "|%s", m.String()[2:7])
		}
	}
	b.WriteByte('\n')
	for _, label := range h.RowOrder {
		fmt.Fprintf(&b, "%*s ", labelW, label)
		for _, frac := range h.Rows[label] {
			b.WriteByte(shade(frac))
		}
		b.WriteByte('\n')
	}
	b.WriteString("legend: ' '=no traffic  '.'=0  '1'-'9'=deciles  '#'=all\n")
	return b.String()
}

// MaxFraction returns the largest fraction in the row, ignoring gaps.
func (h *Heatmap) MaxFraction(label string) float64 {
	max := -1.0
	for _, f := range h.Rows[label] {
		if f > max {
			max = f
		}
	}
	return max
}

// table is a minimal fixed-width text table builder shared by the
// Render methods.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(title string) string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
