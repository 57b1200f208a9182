package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"retrolock/internal/relay"
)

// setupReps is how many times each half sets up per run; setup_s is built
// from the medians.
const setupReps = 3

type benchOpts struct {
	workload string
	load     relayLoad
	seed     int64
	window   time.Duration
	bin      string
	work     string // scratch directory for this run, under .bench_build
}

// runChild runs this binary in a child mode and decodes its JSON stdout.
func runChild(o benchOpts, out any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	args = append(args, "-seed", strconv.FormatInt(o.seed, 10), "-bin", o.bin)
	cmd := exec.Command(self, args...)
	cmd.Dir = o.work
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	return json.Unmarshal(stdout.Bytes(), out)
}

// lockstepHalf runs the untraced sweep passes.
func lockstepHalf(o benchOpts) (*lockstepRun, error) {
	l := &lockstepRun{}
	for i := 0; i < sweepPasses; i++ {
		var r sweepResult
		if err := runChild(o, &r, "-child", "sweep"); err != nil {
			return nil, err
		}
		l.add(&r)
	}
	return l, nil
}

// relayLauncher starts the relay under test: the relayd binary, or the
// traced host.
type relayLauncher func(o benchOpts) (*relaydProc, error)

func launchRelayd(o benchOpts) (*relaydProc, error) {
	return startProc(o, filepath.Join(o.bin, "relayd"), relaydArgs(o)...)
}

func relaydArgs(o benchOpts) []string {
	capDir := filepath.Join(o.work, "autocapture")
	args := []string{
		"-listen", "127.0.0.1:0", "-lobby", "127.0.0.1:0", "-obs", "127.0.0.1:0",
		"-autocapture", capDir, "-shards", strconv.Itoa(nproc()),
	}
	if o.load.churn {
		args = append(args, "-ttl", churnTTL.String(), "-lobby-ttl", churnLobbyTTL.String())
	}
	return args
}

func launchTracedHost(o benchOpts) (*relaydProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p, err := startProc(o, self, "-child", "relayhost", "-workload", o.workload,
		"-bin", o.bin, "-spans", spanPath(o, "relay"))
	if err != nil {
		return nil, err
	}
	p.traced = true
	return p, nil
}

// relayHalf sets the relay up setupReps times (each time from process start
// until every session is admitted and both its sites are bound), then drives
// the load on the last instance and checks it.
func relayHalf(o benchOpts, launch relayLauncher) (relayOutcome, *relayHostReport, error) {
	var out relayOutcome
	var admits []float64
	horizon := o.load.warmup + o.window + 5*time.Second
	var p *relaydProc
	var g *generator
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		p, err = launch(o)
		if err != nil {
			return out, nil, err
		}
		g, err = newGenerator(o.load, o.seed, horizon)
		if err == nil {
			err = g.admitInitial(p, fmt.Sprintf("s%d-r%d", o.seed, rep), !o.load.churn)
		}
		if err == nil {
			err = g.bindAll(p)
		}
		if err != nil {
			p.kill()
			if g != nil {
				g.close()
			}
			return out, nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		admits = append(admits, g.admits...)
		out.admitsAll += g.admitsAll
		out.admitFails += g.admitFails
		if rep < setupReps-1 {
			g.close()
			if err := p.stop(); err != nil {
				return out, nil, err
			}
		}
	}
	defer g.close()
	if !o.load.churn {
		g.admits = admits
	} else {
		g.admits = nil
	}
	setupAdmits := g.admitsAll
	g.admitsAll, g.admitFails = 0, 0

	var markErr error
	type markT struct {
		wall           time.Time
		user, sys, gen time.Duration
		steal, rss     float64
	}
	var marks []markT
	secs := int(o.window / time.Second)
	g.onMark = func(i int) {
		u, s, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			markErr = err
		}
		rss, err := rssMiB(p.cmd.Process.Pid)
		if err != nil {
			markErr = err
		}
		if p.traced && (i == 0 || i == secs) {
			if err := p.mark(i == 0); err != nil {
				markErr = err
			}
		}
		marks = append(marks, markT{wall: time.Now(), user: u, sys: s, gen: processCPU(), steal: stealSeconds(), rss: rss})
	}
	g.run(p, o.window, fmt.Sprintf("s%d-load", o.seed))
	if markErr != nil {
		p.kill()
		return out, nil, markErr
	}
	m, err := p.metrics()
	if err != nil {
		p.kill()
		return out, nil, err
	}
	g.check(m)
	rss, err := peakRSSMiB(p.cmd.Process.Pid)
	if err != nil {
		p.kill()
		return out, nil, err
	}
	if err := p.stop(); err != nil {
		g.violate("%v", err)
	}
	if len(marks) != secs+1 {
		return out, nil, fmt.Errorf("window marks: %d of %d", len(marks), secs+1)
	}
	o2 := g.outcome()
	first, last := marks[0], marks[secs]
	o2.setups = out.setups
	o2.cpuUser = last.user - first.user
	o2.cpu = o2.cpuUser + last.sys - first.sys
	o2.genCPU = last.gen - first.gen
	o2.markWallS = last.wall.Sub(first.wall).Seconds()
	o2.stealShare = (last.steal - first.steal) / (o2.markWallS * float64(nproc()))
	var rssSamples []float64
	for _, m := range marks[1:] {
		rssSamples = append(rssSamples, m.rss)
	}
	o2.rssMiB = median(rssSamples)
	for i := 0; i < secs && i < len(o2.livePerSec); i++ {
		a, b := marks[i], marks[i+1]
		cores := (b.user + b.sys - a.user - a.sys).Seconds() / b.wall.Sub(a.wall).Seconds()
		if cores > 0 {
			o2.perCorePerSec = append(o2.perCorePerSec, o2.livePerSec[i]/cores)
		}
	}
	o2.instanceAdmits = setupAdmits + o2.admitsAll
	o2.admitsAll += out.admitsAll
	o2.admitFails += out.admitFails
	o2.peakRSSMiB = rss
	o2.counters = m
	o2.violations = g.violations
	var host *relayHostReport
	if p.traced {
		host = &relayHostReport{}
		if err := json.Unmarshal(p.stdout.Bytes(), host); err != nil {
			return o2, nil, fmt.Errorf("traced host report: %w", err)
		}
	}
	return o2, host, nil
}

// mark opens or closes the traced host's measurement window.
func (p *relaydProc) mark(start bool) error {
	edge := "end"
	if start {
		edge = "start"
	}
	resp, err := http.Get("http://" + p.obs + "/bench/window?edge=" + edge)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// e2e is one run's end-to-end numbers and operation accounting.
type e2e struct {
	metrics    map[string]float64
	attempted  int
	failed     int
	violations []string
	// invalid, when set, says why the run's relay numbers do not measure
	// the relay. It is printed, not a correctness failure: the outputs
	// were still checked.
	invalid string
}

// Units of the end-to-end metrics, as BENCHMARK.json declares them.
var e2eUnits = map[string]string{
	"setup_s":                    "s",
	"lockstep_peak_rss_mb":       "MiB",
	"relay_rss_mb":               "MiB",
	"lockstep_site_frames_per_s": "frames/s",
	"knee_rtt_ms":                "ms",
	"skew_ms":                    "ms",
	"relay_sessions_per_core":    "sessions/core",
	"relay_delivered_ratio":      "ratio",
	"relay_latency_p50_ms":       "ms",
}

// endToEnd folds both halves into the end-to-end metrics and the run's
// operation accounting.
func endToEnd(l *lockstepRun, r relayOutcome) e2e {
	var e e2e
	_, kneeInterp := knee(l.points)
	e.metrics = map[string]float64{
		"setup_s":                    median(l.setups) + median(r.setups),
		"lockstep_peak_rss_mb":       median(l.rss),
		"relay_rss_mb":               r.rssMiB,
		"lockstep_site_frames_per_s": l.framesPerS(),
		"knee_rtt_ms":                kneeInterp,
		"skew_ms":                    meanSkew(l.points),
		"relay_sessions_per_core":    median(r.perCorePerSec),
		"relay_delivered_ratio":      float64(r.deliveredWin) / float64(r.sentWin),
		"relay_latency_p50_ms":       r.latencyP50Med,
	}
	e.violations = append(checkSweep(l.points), r.violations...)
	// Operations: every sweep point, every payload datagram, every
	// admission. A point that fails to converge, a datagram not delivered
	// and a timed-out admission each count as failed.
	e.attempted = len(l.points) + r.sentAll + r.admitsAll
	for _, p := range l.points {
		if !p.Converged {
			e.failed++
		}
	}
	e.failed += r.sentAll - r.deliveredAll + r.admitFails
	if late := r.lateness.P99; late > float64(tick)/1e6 {
		e.invalid = fmt.Sprintf("generator p99 lateness %.3f ms exceeds one 60 Hz tick, so the generator, not the relay, set the numbers", late)
	}
	return e
}

func printHalf(l *lockstepRun, r relayOutcome) {
	grid, interp := knee(l.points)
	fmt.Printf("lockstep: %d site-frames per pass; pass wall %s s, CPU %s s; peak RSS %s MiB; passes agree %v; setups %s s\n",
		l.siteFrames, fmtList(l.walls), fmtList(l.cpus), fmtList(l.rss), l.passesAgree, fmtList(l.setups))
	fmt.Printf("lockstep: knee %.0f ms on the grid, %.3f ms interpolated; mean |skew| %.4f ms over %d points\n",
		grid, interp, meanSkew(l.points), len(l.points))
	fmt.Printf("lockstep: journey_implausible %d of %d points (journal cross-site p50 above RTT + 1 s; diagnostic, see perfbench/NOTES.md)\n",
		journeyImplausible(l.points), len(l.points))
	fmt.Printf("relay: resident set %.2f MiB (median of the window's seconds), peak %.2f MiB\n", r.rssMiB, r.peakRSSMiB)
	fmt.Printf("relay: setups %v s; %.1f live sessions; relay CPU %.3f s (%.1f%% system) over %.3f s; host steal %.2f%%\n",
		fmtList(r.setups), r.sessionsLive, r.cpu.Seconds(), 100*(1-r.cpuUser.Seconds()/r.cpu.Seconds()), r.markWallS, 100*r.stealShare)
	fmt.Printf("relay: sessions/core per second %s\n", fmtList(r.perCorePerSec))
	fmt.Printf("relay: delivered %d of %d in window, %d of %d overall\n", r.deliveredWin, r.sentWin, r.deliveredAll, r.sentAll)
	fmt.Printf("relay: latency ms %s; median per-second p99 %.4f, p50 %.4f\n", r.latency, r.latencyP99Med, r.latencyP50Med)
	fmt.Printf("relay: admission ms %s; %d admissions, %d timed out\n", r.admit, r.admitsAll, r.admitFails)
	fmt.Printf("generator: lateness ms %s; CPU %.0f ns per datagram\n", r.lateness, r.genCPUPerDatagram())
	fmt.Printf("relay /metrics: in %.0f forwarded %.0f binds %.0f parked %.0f pending-drops %.0f queue-drops %.0f queue-peak %.0f rejected %.0f\n",
		r.counters[relay.MetricDatagramsIn], r.counters[relay.MetricForwarded], r.counters[relay.MetricBinds],
		r.counters[relay.MetricPendingQueued], r.counters[relay.MetricDropped+"/pending"], r.counters[relay.MetricDropped+"/queue"],
		r.counters[relay.MetricQueuePeak], rejectedTotal(r.counters))
}

func (r relayOutcome) genCPUPerDatagram() float64 {
	n := r.sentWin + r.deliveredWin
	if n == 0 {
		return 0
	}
	return float64(r.genCPU) / float64(n)
}

func rejectedTotal(m map[string]float64) float64 {
	t := 0.0
	for _, k := range []string{"runt", "site", "token", "spoof", "front/runt", "front/route"} {
		t += m[relay.MetricRejected+"/"+k]
	}
	return t
}

func fmtList(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4f", x)
	}
	return b.String()
}

// spanPath is where a traced part writes its raw spans; they outlive the
// run's scratch directory.
func spanPath(o benchOpts, part string) string {
	return filepath.Join(o.bin, fmt.Sprintf("spans-%s-%d-%s.jsonl", o.workload, o.seed, part))
}
