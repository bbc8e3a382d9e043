// Package report persists a completed study's artifacts to disk: one
// file per table and figure (the layout of the paper's published data
// release), machine-readable CSVs for the heatmap figures, and an index.
package report

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/capture"
	"repro/internal/core"
)

// artifact is one output file, rendered lazily so a missing section of
// a degraded report (nil figure after a drained or fault-ridden run)
// yields a placeholder file instead of sinking the whole Write.
type artifact struct {
	Name   string
	Title  string
	Render func() string
}

// Write renders every artifact of rep into dir (created if needed) and
// returns the file names written, index.md first.
func Write(dir string, s *core.Study, rep *core.Report) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	nameOf := s.NameOf
	artifacts := []artifact{
		{"table1.txt", "Device inventory", func() string { return analysis.RenderTable1(s.Registry) }},
		{"table2.txt", "Interception attacks", analysis.RenderTable2},
		{"table3.txt", "Root-store sources", analysis.RenderTable3},
		{"table4.txt", "Library alert amenability", func() string { return analysis.RenderTable4(rep.Table4Rows) }},
		{"table5.txt", "Downgrade behaviours", func() string { return analysis.RenderTable5(rep.Downgrades, nameOf) }},
		{"table6.txt", "Old-version support", func() string { return analysis.RenderTable6(rep.OldVersions, nameOf) }},
		{"table7.txt", "Interception vulnerability", func() string { return analysis.RenderTable7(rep.Interceptions, nameOf) }},
		{"table8.txt", "Revocation support", func() string { return rep.Table8.Render() }},
		{"table9.txt", "Root-store exploration", func() string { return analysis.RenderTable9(rep.ProbeReports, nameOf) }},
		{"figure1.txt", "Version heatmaps", func() string { return rep.Figure1.Render() }},
		{"figure2.txt", "Insecure-suite advertising", func() string { return rep.Figure2.Render() }},
		{"figure3.txt", "Strong-suite establishment", func() string { return rep.Figure3.Render() }},
		{"figure4.txt", "Root staleness", func() string { return rep.Figure4.Render() }},
		{"figure5.txt", "Fingerprint sharing", func() string { return rep.Figure5.Render() }},
		{"stats.txt", "Statistics", func() string {
			return strings.Join([]string{
				core.RenderSafe(rep.Comparison.Render),
				core.RenderSafe(rep.Passthrough.Render),
				core.RenderSafe(rep.Dataset.Render),
				core.RenderSafe(rep.Diversity.Render),
			}, "\n")
		}},
		{"figure2.csv", "Insecure-suite advertising (CSV)", func() string { return heatmapCSV(rep.Figure2.Heatmap) }},
		{"figure3.csv", "Strong-suite establishment (CSV)", func() string { return heatmapCSV(rep.Figure3.Heatmap) }},
	}
	// The passive dataset itself: the store holds exactly the passive
	// window, live and restored alike.
	var ds strings.Builder
	if _, err := capture.WriteCSV(&ds, s.Store); err != nil {
		return nil, err
	}
	csv := ds.String()
	artifacts = append(artifacts, artifact{"observations.csv", "Passive observations (CSV)", func() string { return csv }})

	var written []string
	var index strings.Builder
	index.WriteString("# IoTLS study artifacts\n\n")
	for _, a := range artifacts {
		path := filepath.Join(dir, a.Name)
		if err := os.WriteFile(path, []byte(core.RenderSafe(a.Render)), 0o644); err != nil {
			return written, err
		}
		written = append(written, a.Name)
		fmt.Fprintf(&index, "- [%s](%s) — %s\n", a.Name, a.Name, a.Title)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.md"), []byte(index.String()), 0o644); err != nil {
		return written, err
	}
	return append([]string{"index.md"}, written...), nil
}

// heatmapCSV flattens a heatmap into device,month,fraction rows; gaps
// (no traffic) are omitted.
func heatmapCSV(h *analysis.Heatmap) string {
	var b strings.Builder
	b.WriteString("device,month,fraction\n")
	labels := append([]string(nil), h.RowOrder...)
	sort.Strings(labels)
	for _, label := range labels {
		for _, m := range h.Months {
			f := h.Get(label, m)
			if f < 0 {
				continue
			}
			fmt.Fprintf(&b, "%q,%s,%.4f\n", label, m, f)
		}
	}
	return b.String()
}
