// Package pool provides the study engine's worker pool: a fixed set of
// workers draining a pre-enumerated list of work items. Work is
// enumerated (and sequence numbers assigned) before dispatch, so the
// set of operations performed is identical at any parallelism — only
// completion order varies, and callers write results by item index to
// erase that too.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Parallelism resolves a requested worker count: values below 1 mean
// GOMAXPROCS.
func Parallelism(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Run invokes fn(worker, item) for every item in [0, items), spread
// over Parallelism(parallelism) workers. The worker index (dense in
// [0, workers)) lets callers keep per-worker accumulators merged after
// the call returns — Run is a barrier. With one worker, or one item,
// fn runs inline on the calling goroutine in item order, making the
// sequential path identical to the pre-pool code.
func Run(parallelism, items int, fn func(worker, item int)) {
	workers := Parallelism(parallelism)
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		for i := 0; i < items; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= items {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// RunSpans is Run with per-item trace spans: each item becomes a child
// of parent with the item index as its ordinal, so the span tree is
// identical at any parallelism. The span is ended "ok" after fn returns
// unless fn already ended it (a recover path recording "panic", say) —
// End is first-wins. A nil parent traces nothing and behaves like Run.
func RunSpans(parallelism, items int, parent *trace.Span, name string, detail func(item int) string, fn func(worker, item int, sp *trace.Span)) {
	Run(parallelism, items, func(worker, i int) {
		sp := parent.ChildAt(uint64(i), name, detail(i))
		defer sp.End("ok")
		fn(worker, i, sp)
	})
}
