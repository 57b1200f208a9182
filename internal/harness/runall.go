package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// RunAll runs every config as an independent experiment and returns the
// results in input order. Each Run is a closed, seeded, virtual-time world,
// so the points run concurrently on min(GOMAXPROCS, len(cfgs)) workers and
// every result is bit-identical to a standalone Run of the same config.
//
// Work is handed out in index order. onResult, when non-nil, is called on
// the caller's goroutine strictly in index order, as soon as every earlier
// point has completed (for progress output). On failure RunAll stops handing
// out work and returns the results before the lowest failing index together
// with that point's error — what a serial loop would have returned; points
// still running then finish in the background and are discarded. A panic
// inside a point is re-raised on the caller's goroutine with the point's
// index and config.
//
// If any config sets Capture the points run one at a time: a shared recorder
// records in arrival order, and that order is part of its output.
func RunAll(cfgs []Config, onResult func(i int, r *Result)) ([]*Result, error) {
	workers := runtime.GOMAXPROCS(0)
	for _, c := range cfgs {
		if c.Capture != nil {
			workers = 1
		}
	}
	return runAll(cfgs, workers, Run, onResult)
}

// outcome is how one point ended.
type outcome struct {
	res   *Result
	err   error
	panic any
	stack []byte
}

// runAll is RunAll with the worker count and the per-point function as
// parameters.
func runAll(cfgs []Config, workers int, run func(Config) (*Result, error), onResult func(int, *Result)) ([]*Result, error) {
	outcomes := make([]outcome, len(cfgs))
	ready := make([]chan struct{}, len(cfgs)) // closed once outcomes[i] is set
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var (
		next    atomic.Int64 // index of the next config to hand out
		stopped atomic.Bool  // set on the first failure: hand out no more work
	)
	for w := 0; w < min(workers, len(cfgs)); w++ {
		go func() {
			for !stopped.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(cfgs) {
					return
				}
				o := runPoint(cfgs[i], run)
				outcomes[i] = o
				if o.err != nil || o.panic != nil {
					stopped.Store(true)
				}
				close(ready[i])
			}
		}()
	}
	// However the collector leaves — error, re-raised panic or a panicking
	// onResult — no further point starts.
	defer stopped.Store(true)

	// Work goes out in index order, so every point before a failure has
	// been handed out and will complete.
	out := make([]*Result, 0, len(cfgs))
	for i := range cfgs {
		<-ready[i]
		o := outcomes[i]
		if o.panic != nil {
			panic(fmt.Sprintf("harness: point %d (%+v) panicked: %v\n%s", i, cfgs[i], o.panic, o.stack))
		}
		if o.err != nil {
			return out, o.err
		}
		out = append(out, o.res)
		if onResult != nil {
			onResult(i, o.res)
		}
	}
	return out, nil
}

// runPoint runs one config, recovering a panic so the collector can re-raise
// it in index order.
func runPoint(cfg Config, run func(Config) (*Result, error)) (o outcome) {
	defer func() {
		if o.panic = recover(); o.panic != nil {
			o.stack = debug.Stack()
		}
	}()
	o.res, o.err = run(cfg)
	return o
}
