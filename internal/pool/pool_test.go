package pool

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestParallelism(t *testing.T) {
	if got, want := Parallelism(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Parallelism(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got, want := Parallelism(-3), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Parallelism(-3) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Parallelism(5); got != 5 {
		t.Errorf("Parallelism(5) = %d, want 5", got)
	}
}

func TestRunVisitsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 64} {
		for _, items := range []int{0, 1, 7, 500} {
			visits := make([]atomic.Int32, items)
			Run(workers, items, func(_, i int) { visits[i].Add(1) })
			for i := range visits {
				if n := visits[i].Load(); n != 1 {
					t.Errorf("workers=%d items=%d: item %d visited %d times", workers, items, i, n)
				}
			}
		}
	}
}

func TestRunWorkerIndicesDense(t *testing.T) {
	// Range: every index lies in [0, min(workers, items)).
	for _, workers := range []int{2, 8} {
		for _, items := range []int{3, 100} {
			limit := min(workers, items)
			var bad atomic.Int32
			Run(workers, items, func(w, _ int) {
				if w < 0 || w >= limit {
					bad.Add(1)
				}
			})
			if n := bad.Load(); n != 0 {
				t.Errorf("workers=%d items=%d: %d calls outside [0, %d)", workers, items, n, limit)
			}
		}
	}

	// Density: when every item blocks until all are running at once,
	// each worker holds exactly one item, so every index must appear.
	const workers = 6
	var arrived sync.WaitGroup
	arrived.Add(workers)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	var mu sync.Mutex
	seen := map[int]bool{}
	Run(workers, workers, func(w, _ int) {
		mu.Lock()
		seen[w] = true
		mu.Unlock()
		arrived.Done()
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			t.Error("items never ran concurrently")
		}
	})
	for w := 0; w < workers; w++ {
		if !seen[w] {
			t.Errorf("worker index %d never used; seen %v", w, seen)
		}
	}
}

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine N [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

func TestRunInlineOnCaller(t *testing.T) {
	caller := goid()
	for _, c := range []struct{ workers, items int }{{1, 10}, {8, 1}} {
		var order []int
		Run(c.workers, c.items, func(w, i int) {
			if g := goid(); g != caller {
				t.Errorf("workers=%d items=%d: item %d ran on goroutine %d, want caller %d", c.workers, c.items, i, g, caller)
			}
			if w != 0 {
				t.Errorf("workers=%d items=%d: inline worker index %d, want 0", c.workers, c.items, w)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d items=%d: order %v, want item order", c.workers, c.items, order)
			}
		}
		if len(order) != c.items {
			t.Errorf("workers=%d items=%d: ran %d items", c.workers, c.items, len(order))
		}
	}
}

// spanTree runs a traced fan-out at the given worker count and returns
// the canonical span records. Every fifth item ends its own span first
// ("panic", as a recover path does) so the first-wins End is covered.
func spanTree(t *testing.T, workers int) []trace.SpanRecord {
	t.Helper()
	tr := trace.New(nil, 7)
	root := tr.Root("phase", "test")
	RunSpans(workers, 40, root, "device",
		func(i int) string { return fmt.Sprintf("dev-%02d", i) },
		func(_, i int, sp *trace.Span) {
			sp.Child("connect", "host").End("ok")
			if i%5 == 0 {
				sp.End("panic")
			}
		})
	root.End("ok")
	if n := tr.Live(); n != 0 {
		t.Fatalf("workers=%d: %d spans left open", workers, n)
	}
	return tr.Spans()
}

func TestRunSpansTreeIndependentOfWorkers(t *testing.T) {
	seq := spanTree(t, 1)
	if len(seq) != 1+40*2 {
		t.Fatalf("sequential tree has %d spans, want %d", len(seq), 1+40*2)
	}
	for _, r := range seq {
		if r.Name != "device" {
			continue
		}
		want := "ok"
		if r.Ordinal%5 == 0 {
			want = "panic"
		}
		if r.Status != want || r.Detail != fmt.Sprintf("dev-%02d", r.Ordinal) {
			t.Errorf("device span %d: detail %q status %q, want status %q", r.Ordinal, r.Detail, r.Status, want)
		}
	}
	if par := spanTree(t, 8); !reflect.DeepEqual(seq, par) {
		t.Fatal("span tree differs between 1 and 8 workers")
	}
}

func TestRunSpansNilParentTracesNothing(t *testing.T) {
	var visited, traced atomic.Int32
	RunSpans(8, 25, nil, "device",
		func(i int) string { return strconv.Itoa(i) },
		func(_, _ int, sp *trace.Span) {
			visited.Add(1)
			if sp != nil {
				traced.Add(1)
			}
		})
	if visited.Load() != 25 || traced.Load() != 0 {
		t.Fatalf("visited %d items with %d non-nil spans, want 25 and 0", visited.Load(), traced.Load())
	}
}
