package harness

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/core"
	"retrolock/internal/metrics"
)

// siteFingerprint is everything a point reports per site that must not
// depend on whether it ran alone or beside other points.
type siteFingerprint struct {
	FinalHash  uint64
	Frames     int
	FPS        float64
	FrameTimes metrics.Summary
	LagChanges int
	AvgLag     float64
	FinalLag   int
	Stats      core.Stats // read back out of the run's registry
	Rollback   core.RollbackStats
}

// fingerprint leaves out Elapsed: it ends with the shutdown drain, whose
// same-instant wake-ups race (see vclock.Virtual) in standalone reruns too.
type fingerprint struct {
	Sites     []siteFingerprint
	Sync      metrics.Summary
	Converged bool
}

func fingerprintOf(r *Result) fingerprint {
	fp := fingerprint{Sync: r.Sync, Converged: r.Converged}
	for _, s := range r.Sites {
		fp.Sites = append(fp.Sites, siteFingerprint{
			FinalHash: s.FinalHash, Frames: s.Frames, FPS: s.FPS, FrameTimes: s.FrameTimes,
			LagChanges: s.LagChanges, AvgLag: s.AvgLag, FinalLag: s.FinalLag,
			Stats: s.Stats, Rollback: s.Rollback,
		})
	}
	return fp
}

// requireStandalone fails unless got is bit-identical to a standalone Run
// of cfg.
func requireStandalone(t *testing.T, name string, cfg Config, got *Result) {
	t.Helper()
	want := fingerprintOf(run(t, cfg))
	if fp := fingerprintOf(got); !reflect.DeepEqual(fp, want) {
		t.Errorf("%s: concurrent point differs from a standalone Run:\n got %+v\nwant %+v", name, fp, want)
	}
}

func TestSweepRTTConcurrentMatchesStandalone(t *testing.T) {
	base := PaperCalibration()
	base.Frames, base.Seed = 300, 11
	// Both sides of the 140-160 ms knee.
	rtts := []time.Duration{0, 60, 120, 140, 150, 160, 200, 300}
	for i := range rtts {
		rtts[i] *= time.Millisecond
	}
	var seen []time.Duration
	points, err := SweepRTT(base, rtts, func(p SweepPoint) { seen = append(seen, p.RTT) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, rtts) {
		t.Fatalf("onPoint saw RTTs %v, want %v in input order", seen, rtts)
	}
	for i, p := range points {
		if p.RTT != rtts[i] {
			t.Fatalf("point %d has RTT %v, want %v", i, p.RTT, rtts[i])
		}
		cfg := base
		cfg.RTT = p.RTT
		requireStandalone(t, fmt.Sprintf("rtt %v", p.RTT), cfg, p.Result)
	}
}

func TestSweepLossConcurrentMatchesStandalone(t *testing.T) {
	base := Config{RTT: 60 * time.Millisecond, Frames: 300, Seed: 12}
	losses := []float64{0, 0.02, 0.05, 0.10}
	var seen []float64
	out, err := SweepLoss(base, losses, func(loss float64, _ *Result) { seen = append(seen, loss) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, losses) {
		t.Fatalf("onPoint saw losses %v, want %v in input order", seen, losses)
	}
	for _, loss := range losses {
		cfg := base
		cfg.Loss = loss
		requireStandalone(t, fmt.Sprintf("loss %.2f", loss), cfg, out[loss])
	}
}

func TestRunSeedsConcurrentMatchesStandalone(t *testing.T) {
	cfg := Config{RTT: 150 * time.Millisecond, Frames: 300, Seed: 13, ProcDelay: 40 * time.Millisecond}
	mr, err := RunSeeds(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ft, dev, sync metrics.Series
	for i := 0; i < 4; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*1000
		res := run(t, c)
		ft.Add(res.Sites[0].FrameTimes.Mean)
		dev.Add(res.Sites[0].FrameTimes.MAD)
		sync.Add(res.Sync.AbsMean)
	}
	if mr.FrameTime != ft.Summarize() || mr.Deviation != dev.Summarize() || mr.Sync != sync.Summarize() {
		t.Errorf("RunSeeds spread differs from standalone runs:\n got %+v\nwant %+v %+v %+v",
			mr, ft.Summarize(), dev.Summarize(), sync.Summarize())
	}
}

// TestRunAllConcurrentMatchesStandalone covers the modes a sweep does not:
// a swinging link under adaptive lag (LagStats, and an event scheduled
// relative to the run's start), ARQ under loss and the rollback baseline.
func TestRunAllConcurrentMatchesStandalone(t *testing.T) {
	cfgs := []Config{
		{RTT: 60 * time.Millisecond, RTTSwing: 140 * time.Millisecond, SwingEvery: time.Second, AdaptiveLag: true},
		{RTT: 60 * time.Millisecond, Loss: 0.05, ARQ: true},
		{RTT: 120 * time.Millisecond, Rollback: true},
	}
	for i := range cfgs {
		cfgs[i].Frames, cfgs[i].Seed = 300, int64(20+i)
	}
	results, err := RunAll(cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		requireStandalone(t, fmt.Sprintf("config %d", i), cfgs[i], r)
	}
	if results[0].Sites[0].LagChanges == 0 {
		t.Error("adaptive lag never moved; the LagStats comparison is vacuous")
	}
}

// TestRunAllSerializesSharedCapture: one recorder shared by every point
// must hold each point's records as one contiguous block, in input order,
// equal to what the point records alone. Within a point, datagrams tapped at
// the same virtual instant by different sites may land in either order (see
// vclock.Virtual), so blocks are compared with each instant's records sorted.
func TestRunAllSerializesSharedCapture(t *testing.T) {
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i] = Config{RTT: 40 * time.Millisecond, Jitter: 3 * time.Millisecond, Loss: 0.02,
			ARQ: true, Frames: 240, Seed: int64(5 + i)}
	}
	record := func(rec *capture.Recorder) []capture.Record {
		if rec.Dropped() != 0 {
			t.Fatalf("capture dropped %d records; raise the recorder budgets", rec.Dropped())
		}
		return rec.Snapshot(capture.Meta{Game: "pong"}).Records
	}
	shared := capture.NewRecorder(1<<18, 1<<24)
	sharedCfgs := append([]Config(nil), cfgs...)
	for i := range sharedCfgs {
		sharedCfgs[i].Capture = shared
	}
	if _, err := RunAll(sharedCfgs, nil); err != nil {
		t.Fatal(err)
	}
	// Each point's tap instants never decrease, so a point's block ends
	// where time steps back to the next point's start.
	var blocks [][]capture.Record
	recs := record(shared)
	for start, i := 0, 1; i <= len(recs); i++ {
		if i == len(recs) || recs[i].At < recs[i-1].At {
			blocks = append(blocks, canonicalRecords(recs[start:i]))
			start = i
		}
	}
	if len(blocks) != len(cfgs) {
		t.Fatalf("shared capture holds %d interleaved blocks, want one per point (%d)", len(blocks), len(cfgs))
	}
	for i, c := range cfgs {
		c.Capture = capture.NewRecorder(1<<16, 1<<22)
		run(t, c)
		if want := canonicalRecords(record(c.Capture)); !reflect.DeepEqual(blocks[i], want) {
			t.Errorf("point %d: shared-capture block (%d records) differs from its standalone capture (%d records)",
				i, len(blocks[i]), len(want))
		}
	}
}

// canonicalRecords re-bases a block's instants on its first record and
// sorts the records tapped at one instant.
func canonicalRecords(recs []capture.Record) []capture.Record {
	out := append([]capture.Record(nil), recs...)
	for i := range out {
		out[i].At -= recs[0].At
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		return bytes.Compare(a.Payload, b.Payload) < 0
	})
	return out
}

// seamConfigs returns n configs told apart by Seed = 100+i.
func seamConfigs(n int) []Config {
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i].Seed = int64(100 + i)
	}
	return cfgs
}

func indexOf(c Config) int { return int(c.Seed - 100) }

func fakeResult(c Config) *Result { return &Result{Elapsed: time.Duration(c.Seed)} }

func TestRunAllOnResultInOrder(t *testing.T) {
	const n = 12
	cfgs := seamConfigs(n)
	first := make(chan struct{})
	var order []int
	results, err := runAll(cfgs, 4, func(c Config) (*Result, error) {
		i := indexOf(c)
		if i == n-1 {
			// onResult streams: point 0's callback fires while the last
			// point is still running.
			select {
			case <-first:
			case <-time.After(10 * time.Second):
				return nil, errors.New("onResult(0) not called before the last point finished")
			}
		}
		// Later points finish first.
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		return fakeResult(c), nil
	}, func(i int, r *Result) {
		if i == 0 {
			close(first)
		}
		if r.Elapsed != time.Duration(100+i) {
			t.Errorf("onResult(%d) got the result of seed %d", i, r.Elapsed)
		}
		order = append(order, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("onResult order %v, want 0..%d", order, n-1)
		}
	}
	if len(order) != n || len(results) != n {
		t.Fatalf("got %d callbacks and %d results, want %d", len(order), len(results), n)
	}
	for i, r := range results {
		if r.Elapsed != time.Duration(100+i) {
			t.Fatalf("result %d is seed %d's", i, r.Elapsed)
		}
	}
}

func TestRunAllReturnsPrefixOnFailure(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n, failAt = 10, 4
			boom := errors.New("boom")
			gate := make(chan struct{})
			var mu sync.Mutex
			var started []int
			goroutines := runtime.NumGoroutine()
			fn := func(c Config) (*Result, error) {
				i := indexOf(c)
				mu.Lock()
				started = append(started, i)
				mu.Unlock()
				switch {
				case i == failAt:
					return nil, boom
				case i > failAt:
					// In flight when the failure lands; held until RunAll
					// has returned.
					<-gate
				}
				return fakeResult(c), nil
			}
			var calls []int
			results, err := runAll(seamConfigs(n), workers, fn, func(i int, _ *Result) { calls = append(calls, i) })
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the failing point's error", err)
			}
			if len(results) != failAt || len(calls) != failAt {
				t.Fatalf("got %d results and %d callbacks, want exactly the %d before the failure", len(results), len(calls), failAt)
			}
			for i, r := range results {
				if r.Elapsed != time.Duration(100+i) {
					t.Fatalf("result %d is seed %d's", i, r.Elapsed)
				}
			}
			// Release the in-flight points and let every worker exit. Each
			// worker other than the failing one can hold at most one point
			// past the failure, handed out before it; after the release none
			// may pick up more work.
			close(gate)
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%d goroutines still running after the in-flight points finished, want %d", n, goroutines)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, i := range started {
				if i >= failAt+workers {
					t.Errorf("point %d started after point %d failed (started %v)", i, failAt, started)
				}
			}
		})
	}
}

func TestRunAllReturnsLowestIndexedFailure(t *testing.T) {
	err1, err2 := errors.New("point 1"), errors.New("point 2")
	failed2 := make(chan struct{})
	results, err := runAll(seamConfigs(4), 2, func(c Config) (*Result, error) {
		switch indexOf(c) {
		case 1:
			<-failed2 // fail only after a later point already has
			return nil, err1
		case 2:
			close(failed2)
			return nil, err2
		}
		return fakeResult(c), nil
	}, nil)
	if err != err1 || len(results) != 1 {
		t.Fatalf("got %d results and err %v, want 1 result and point 1's error", len(results), err)
	}
}

func TestRunAllReraisesPanic(t *testing.T) {
	var calls atomic.Int32
	defer func() {
		p := recover()
		msg, _ := p.(string)
		for _, want := range []string{"point 1", "Seed:101", "kaboom"} {
			if !strings.Contains(msg, want) {
				t.Errorf("re-raised panic %q does not mention %q", msg, want)
			}
		}
		if calls.Load() != 1 {
			t.Errorf("onResult ran %d times before the panic, want once (point 0)", calls.Load())
		}
	}()
	runAll(seamConfigs(4), 2, func(c Config) (*Result, error) {
		if indexOf(c) == 1 {
			panic("kaboom")
		}
		return fakeResult(c), nil
	}, func(int, *Result) { calls.Add(1) })
	t.Fatal("runAll returned instead of re-raising the point's panic")
}
