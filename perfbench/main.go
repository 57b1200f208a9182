// Command perfbench is retrolock's benchmark. Each run measures both halves
// of the system on the same inputs:
//
//   - lockstep: the paper's RTT sweep (Figures 1-2) through harness.SweepRTT,
//     closed loop in virtual time;
//   - relay: the relayd binary under an open-loop session load over loopback
//     UDP, steady or churning by workload.
//
// Run it through run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics (--trace 0) or the per-layer metrics of a separate traced run
// (--trace 1). Any correctness violation makes the run exit non-zero. See
// NOTES.md for what each metric means and the defects the benchmark
// reports rather than masks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "steady or churn")
		seed     = flag.Int64("seed", 1, "input seed: netem PRNGs and player inputs of the sweep, session identities and lifetimes of the load")
		seconds  = flag.Int("seconds", 15, "relay measurement window in seconds (the sweep is a fixed amount of work)")
		traceOn  = flag.Int("trace", 0, "1: also run traced and report per-layer metrics")
		bin      = flag.String("bin", ".bench_build", "directory holding the built relayd")
		child    = flag.String("child", "", "internal: run one part in a child process (setup, sweep, tracesweep, relayhost)")
		spans    = flag.String("spans", "", "internal: where a traced child writes its spans")
	)
	flag.Parse()
	if *child != "" {
		if err := runChildMode(*child, *workload, *seed, *spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	load, ok := loadFor(*workload)
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload steady|churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	work := filepath.Join(*bin, "runs", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := benchOpts{workload: *workload, load: load, seed: *seed, window: time.Duration(*seconds) * time.Second, bin: *bin, work: work}
	res, err := run(o, *traceOn == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	_ = os.RemoveAll(work)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func runChildMode(mode, workload string, seed int64, spans string) error {
	switch mode {
	case "setup", "sweep":
		res, err := runSweep(seed, mode == "sweep")
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	case "tracesweep":
		res, err := runTracedSweep(seed, spans)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	case "relayhost":
		load, ok := loadFor(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		wd, err := os.Getwd()
		if err != nil {
			return err
		}
		return runRelayHost(wd, spans, load.churn)
	}
	return fmt.Errorf("unknown child mode %q", mode)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run measures one workload. Untraced, it reports the end-to-end metrics.
// Traced, it makes the same untraced measurement first (the baseline for the
// tracing overhead), then the traced one, and reports the per-layer metrics.
func run(o benchOpts, traced bool) (result, error) {
	fmt.Printf("== perfbench workload %s seed %d window %v on %d CPUs (relay traffic crosses loopback) ==\n",
		o.workload, o.seed, o.window, nproc())
	lock, err := lockstepHalf(o)
	if err != nil {
		return result{}, err
	}
	r, _, err := relayHalf(o, launchRelayd)
	if err != nil {
		return result{}, err
	}
	printHalf(lock, r)
	e := endToEnd(lock, r)
	printMetrics("end-to-end", e.metrics, e2eUnits)
	res := result{Correct: len(e.violations) == 0, Attempted: e.attempted, Failed: e.failed}
	if !traced {
		res.Metrics = withUnits(e.metrics, e2eUnits)
		reportInvalid(e)
		reportViolations(e.violations)
		return res, nil
	}

	fmt.Println("-- traced run --")
	var lt lockTrace
	if err := runChild(o, &lt, "-child", "tracesweep", "-spans", spanPath(o, "lockstep")); err != nil {
		return result{}, err
	}
	tr, host, err := relayHalf(o, launchTracedHost)
	if err != nil {
		return result{}, err
	}
	// The traced sweep is one pass; set-up is not traced.
	tlock := &lockstepRun{}
	tlock.add(&sweepResult{WallS: lt.WallS, CPUS: lt.CPUS, SiteFrames: int(lt.SiteFrames), Points: lt.Points, PeakRSSMiB: lt.PeakRSSMiB})
	tlock.setups = lock.setups
	te := endToEnd(tlock, tr)
	printHalf(tlock, tr)
	printMetrics("traced end-to-end", te.metrics, e2eUnits)
	vs := append(e.violations, te.violations...)
	if d := replicaDrift(lock.points, lt.Points); d != "" {
		fmt.Println("traced sweep:", d)
	}
	fmt.Printf("trace: %d lockstep spans written to %s, %d relay spans to %s\n",
		lt.SpansWritten, lt.SpanFile, host.SpansWritten, spanPath(o, "relay"))
	layers := perLayer(&lt, host, r, e.metrics, te.metrics)
	res.Metrics = withUnits(layers.values, layers.units)
	res.Correct = len(vs) == 0
	res.Attempted += te.attempted
	res.Failed += te.failed
	reportInvalid(e, te)
	reportViolations(vs)
	return res, nil
}

func withUnits(vals map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(vals))
	for k, v := range vals {
		out[k] = metric{Value: v, Unit: units[k]}
	}
	return out
}

func printMetrics(title string, vals map[string]float64, units map[string]string) {
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("-- %s --\n", title)
	for _, k := range names {
		fmt.Printf("%-40s %16s %s\n", k, strconv.FormatFloat(vals[k], 'g', 8, 64), units[k])
	}
}

func reportInvalid(es ...e2e) {
	for _, e := range es {
		if e.invalid != "" {
			fmt.Println("INVALID RUN:", e.invalid)
			fmt.Fprintln(os.Stderr, "perfbench: INVALID RUN:", e.invalid)
		}
	}
}

func reportViolations(vs []string) {
	for _, v := range vs {
		fmt.Println("VIOLATION:", v)
		fmt.Fprintln(os.Stderr, "perfbench: VIOLATION:", v)
	}
}

// replicaDrift compares the traced sweep's virtual-time results with the
// untraced harness.Run sweep of the same seed.
func replicaDrift(want, got []pointResult) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d points, untraced %d", len(got), len(want))
	}
	same := 0
	for i := range want {
		if want[i].SkewMs == got[i].SkewMs && want[i].FPS == got[i].FPS {
			same++
		}
	}
	return fmt.Sprintf("%d of %d points bit-identical to the untraced harness.Run sweep (mean |skew| %.4f vs %.4f ms)",
		same, len(want), meanSkew(got), meanSkew(want))
}
