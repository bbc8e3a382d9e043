package dataset_test

import (
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// studyDataset captures one full study into an in-memory dataset.
func studyDataset(b testing.TB) *dataset.Dataset {
	s := core.NewStudy()
	s.Parallelism = 8
	rep, err := s.RunAll()
	if err != nil {
		b.Fatal(err)
	}
	return dataset.FromStudy(s, rep)
}

// BenchmarkWrite measures streaming a captured study to disk.
func BenchmarkWrite(b *testing.B) {
	ds := studyDataset(b)
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, strconv.Itoa(i))
		if err := dataset.Write(dir, ds, dataset.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRead measures loading and verifying a dataset from disk.
func BenchmarkRead(b *testing.B) {
	ds := studyDataset(b)
	dir := filepath.Join(b.TempDir(), "ds")
	if err := dataset.Write(dir, ds, dataset.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Read(dir, nil); err != nil {
			b.Fatal(err)
		}
	}
}
