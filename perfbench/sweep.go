package main

import (
	"fmt"
	"syscall"
	"time"

	"retrolock/internal/harness"
)

// The lockstep half of every workload: the paper's Figures 1-2 experiment,
// harness.SweepRTT over harness.PaperRTTs with the paper calibration on
// pong, 3600 frames per point, closed loop in virtual time. It runs in a
// child process of its own so its peak RSS and CPU are the sweep's alone.

const (
	sweepFrames = 3600
	// sweepPasses is how many sweeps a run makes, each in a fresh child
	// process; the run reports the median pass.
	sweepPasses = 5
	// kneeFPS is the frame rate a point must hold on both sites to count as
	// playable (60 FPS within rounding).
	kneeFPS = 59.5
)

// pointResult is one RTT of the sweep, as the correctness checks and the
// knee and skew metrics read it.
type pointResult struct {
	RTTms     float64 `json:"rtt_ms"`
	FPS       [2]float64
	Frames    [2]int
	SkewMs    float64 `json:"skew_ms"`
	Converged bool
	CrossP50  float64 `json:"cross_p50_ms"`
}

type sweepResult struct {
	SetupS     float64       `json:"setup_s"`
	WallS      float64       `json:"wall_s"`
	CPUS       float64       `json:"cpu_s"`
	SiteFrames int           `json:"site_frames"`
	PeakRSSMiB float64       `json:"peak_rss_mib"`
	Points     []pointResult `json:"points"`
}

// lockstepRun is the lockstep half of one run: sweepPasses child processes,
// each a cold setup and one sweep.
type lockstepRun struct {
	setups, walls, cpus, rss []float64
	points                   []pointResult // the first pass
	siteFrames               int
	// passesAgree reports whether every pass produced the same frame rates,
	// skew and convergence at every point; virtual time is meant to make
	// them bit-identical.
	passesAgree bool
}

func (l *lockstepRun) add(r *sweepResult) {
	l.setups = append(l.setups, r.SetupS)
	l.walls = append(l.walls, r.WallS)
	l.cpus = append(l.cpus, r.CPUS)
	l.rss = append(l.rss, r.PeakRSSMiB)
	if l.points == nil {
		l.points, l.siteFrames, l.passesAgree = r.Points, r.SiteFrames, true
		return
	}
	for i := range r.Points {
		a, b := r.Points[i], l.points[i]
		if a.FPS != b.FPS || a.SkewMs != b.SkewMs || a.Converged != b.Converged {
			l.passesAgree = false
		}
	}
}

// framesPerS is the median pass's site-frames per wall second.
func (l *lockstepRun) framesPerS() float64 { return float64(l.siteFrames) / median(l.walls) }

func sweepConfig(seed int64) harness.Config {
	cfg := harness.PaperCalibration()
	cfg.Game = "pong"
	cfg.Frames = sweepFrames
	cfg.Seed = seed
	return cfg
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// lockstepSetup times a 1-frame harness.Run: ROM assembly, world build and
// the session handshake, which every experiment pays before its first frame.
func lockstepSetup(seed int64) (time.Duration, error) {
	cfg := sweepConfig(seed)
	cfg.Frames = 1
	t0 := time.Now()
	res, err := harness.Run(cfg)
	if err != nil {
		return 0, fmt.Errorf("setup run: %w", err)
	}
	d := time.Since(t0)
	if !res.Converged {
		return 0, fmt.Errorf("setup run did not converge")
	}
	return d, nil
}

// runSweep is the untraced sweep child: one cold setup, then one sweep.
func runSweep(seed int64, withSweep bool) (*sweepResult, error) {
	setup, err := lockstepSetup(seed)
	if err != nil {
		return nil, err
	}
	out := &sweepResult{SetupS: setup.Seconds()}
	if withSweep {
		cpu0, t0 := processCPU(), time.Now()
		pts, err := harness.SweepRTT(sweepConfig(seed), harness.PaperRTTs(), nil)
		if err != nil {
			return nil, err
		}
		out.WallS = time.Since(t0).Seconds()
		out.CPUS = (processCPU() - cpu0).Seconds()
		for _, p := range pts {
			out.Points = append(out.Points, pointOf(p.RTT, p.Result))
		}
		out.SiteFrames = siteFrames(out.Points)
	}
	rss, err := peakRSSMiB(0)
	if err != nil {
		return nil, err
	}
	out.PeakRSSMiB = rss
	return out, nil
}

func pointOf(rtt time.Duration, r *harness.Result) pointResult {
	p := pointResult{
		RTTms:     float64(rtt) / 1e6,
		SkewMs:    r.Sync.AbsMean,
		Converged: r.Converged,
		CrossP50:  r.InputLatency(0).CrossP50,
	}
	for i := 0; i < 2 && i < len(r.Sites); i++ {
		p.FPS[i] = r.Sites[i].FPS
		p.Frames[i] = r.Sites[i].Frames
	}
	return p
}

func siteFrames(pts []pointResult) int {
	n := 0
	for _, p := range pts {
		n += p.Frames[0] + p.Frames[1]
	}
	return n
}

// checkSweep returns every correctness violation of a sweep: each point must
// converge (identical final state hashes) and both sites must execute all
// the frames.
func checkSweep(pts []pointResult) []string {
	var bad []string
	if len(pts) != len(harness.PaperRTTs()) {
		bad = append(bad, fmt.Sprintf("sweep: %d points, want %d", len(pts), len(harness.PaperRTTs())))
	}
	for _, p := range pts {
		if !p.Converged {
			bad = append(bad, fmt.Sprintf("sweep: rtt %g ms did not converge", p.RTTms))
		}
		for s, f := range p.Frames {
			if f != sweepFrames {
				bad = append(bad, fmt.Sprintf("sweep: rtt %g ms site %d executed %d of %d frames", p.RTTms, s, f, sweepFrames))
			}
		}
	}
	return bad
}

// knee returns the highest swept RTT at or below which every point holds
// kneeFPS on both sites, and that RTT refined by linear interpolation of the
// worse site's frame rate up to the first failing point (the grid alone
// reads the same for almost every seed).
func knee(pts []pointResult) (grid, interp float64) {
	for i, p := range pts {
		worst := min(p.FPS[0], p.FPS[1])
		if worst < kneeFPS {
			if i == 0 {
				return 0, 0
			}
			prev := pts[i-1]
			pw := min(prev.FPS[0], prev.FPS[1])
			frac := (pw - kneeFPS) / (pw - worst)
			return prev.RTTms, prev.RTTms + frac*(p.RTTms-prev.RTTms)
		}
		grid = p.RTTms
	}
	return grid, grid
}

// meanSkew is Figure 2's mean |skew| averaged over the sweep's points.
func meanSkew(pts []pointResult) float64 {
	var s float64
	for _, p := range pts {
		s += p.SkewMs
	}
	return s / float64(len(pts))
}

// journeyImplausible counts points whose journal cross-site p50 exceeds RTT
// plus one second: no input can take that long in a run that holds 60 FPS,
// so such a value is a journal defect, reported rather than hidden.
func journeyImplausible(pts []pointResult) int {
	n := 0
	for _, p := range pts {
		if p.CrossP50 > p.RTTms+1000 {
			n++
		}
	}
	return n
}
