package main

import (
	"fmt"
	"runtime"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/flight"
	"retrolock/internal/harness"
	"retrolock/internal/metrics"
	"retrolock/internal/netem"
	"retrolock/internal/obs"
	"retrolock/internal/rom/games"
	"retrolock/internal/simnet"
	"retrolock/internal/span"
	"retrolock/internal/timeserver"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
	"retrolock/internal/vm"
)

// The traced lockstep sweep. It builds each point's two-site session from
// the public constructors harness.Run uses, in the same order and with the
// same seeds, and puts the benchmark's wrappers at the session's interfaces:
// core.Machine (vm.Console), core.FlightRecorder, transport.Conn and
// vclock.Clock. harness.Run's lockstep path without observers, ARQ, capture
// or RTT swing is the reference it mirrors.

// siteTrace is one site actor's recorder plus its counters.
type siteTrace struct {
	tr        *actorTracer
	v         *vclock.Virtual
	syncStart time.Time // virtual instant the open core.sync span began
	syncWait  time.Duration
	sleeps    int64
	emptyRecv int64
	recvs     int64
	sends     int64
	frames    int64
}

// tracedClock is the site's vclock.Clock: Sleep is a span (a wait, never
// self time of a layer) and counted.
type tracedClock struct {
	v  *vclock.Virtual
	st *siteTrace
}

func (c tracedClock) Now() time.Time { return c.v.Now() }
func (c tracedClock) Sleep(d time.Duration) {
	c.st.sleeps++
	c.st.tr.begin("vclock.sleep")
	c.v.Sleep(d)
	c.st.tr.end("vclock.sleep", 0)
}

// tracedConn wraps the site's transport.Conn.
type tracedConn struct {
	transport.Conn
	st *siteTrace
}

func (c tracedConn) Send(p []byte) error {
	c.st.tr.begin("transport.send")
	err := c.Conn.Send(p)
	c.st.sends++
	c.st.tr.end("transport.send", 1)
	return err
}

func (c tracedConn) TryRecv() ([]byte, bool) {
	c.st.tr.begin("transport.recv")
	p, ok := c.Conn.TryRecv()
	c.st.recvs++
	var n int64
	if ok {
		n = 1
	} else {
		c.st.emptyRecv++
	}
	c.st.tr.end("transport.recv", n)
	return p, ok
}

// tracedMachine is the core.Machine the session drives: the harness's
// per-frame emulation cost on the (traced) clock, then the VM step. It
// closes the core.sync span the site's input callback opened, since the
// session calls StepFrame as soon as SyncInput returns.
type tracedMachine struct {
	console *vm.Console
	clock   tracedClock
	cost    time.Duration
	st      *siteTrace
}

func (m *tracedMachine) StepFrame(input uint16) {
	if m.st.tr.open("core.sync") {
		m.st.syncWait += m.st.v.Now().Sub(m.st.syncStart)
		m.st.tr.end("core.sync", 1)
	}
	if m.cost > 0 {
		m.clock.Sleep(m.cost)
	}
	m.st.tr.begin("vm.step")
	m.console.StepFrame(input)
	m.st.frames++
	m.st.tr.end("vm.step", 1)
}

func (m *tracedMachine) StateHash() uint64 {
	m.st.tr.begin("vm.state_hash")
	h := m.console.StateHash()
	m.st.tr.end("vm.state_hash", 1)
	return h
}

// Save and Restore keep the session's late-joiner type assertion working.
func (m *tracedMachine) Save() []byte           { return m.console.Save() }
func (m *tracedMachine) Restore(b []byte) error { return m.console.Restore(b) }

// emulated is the machine the flight recorder snapshots: the console with
// the harness's per-frame cost, exactly as harness.Run hands it over.
type emulated struct {
	*vm.Console
}

// tracedRecorder wraps the site's core.FlightRecorder.
type tracedRecorder struct {
	core.FlightRecorder
	st *siteTrace
}

func (r tracedRecorder) RecordFrame(frame int, input uint16, hash uint64, wait time.Duration) {
	r.st.tr.begin("flight.record")
	r.FlightRecorder.RecordFrame(frame, input, hash, wait)
	r.st.tr.end("flight.record", 1)
}

// pointState is what harness.SweepRTT keeps alive in each point's Result
// until the sweep ends (registry, flight recorders, journals); the traced
// sweep keeps the same so the two sweeps' peak RSS compare.
type pointState struct {
	reg      *obs.Registry
	recs     []*flight.Recorder
	journals []*span.Journal
}

// tracedPoint runs one sweep point with every site traced.
func tracedPoint(cfg harness.Config, epoch time.Time, firstID int) (pointResult, []*siteTrace, *pointState, error) {
	start0 := time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)
	v := vclock.NewVirtual(start0)
	net := simnet.New(v)
	linkCfg := func(seed int64) netem.Config {
		return netem.Config{Delay: cfg.RTT / 2, Jitter: cfg.Jitter, ProcDelay: cfg.ProcDelay, Loss: cfg.Loss, Seed: seed}
	}
	reg := obs.NewRegistry()
	fwdEm, revEm := netem.Install(net, "site0", "site1", linkCfg(cfg.Seed), linkCfg(cfg.Seed+1))
	netem.RegisterLinkMetrics(reg, obs.Labels{"dir": "fwd"}, fwdEm)
	netem.RegisterLinkMetrics(reg, obs.Labels{"dir": "rev"}, revEm)
	skewHist := reg.NewHistogram(core.MetricSkewNs, nil, "per-frame cross-site begin-time skew")
	conn0, conn1, err := transport.SimPair(net, "site0", "site1")
	if err != nil {
		return pointResult{}, nil, nil, err
	}
	conns := []transport.Conn{conn0, conn1}
	ts := timeserver.NewServer(net.MustBind("timeserver"), v)
	tsDone := v.Go(ts.Run)

	game, err := games.Load(cfg.Game)
	if err != nil {
		return pointResult{}, nil, nil, err
	}
	romImage := game.Encode()
	traces := make([]*siteTrace, 2)
	sessions := make([]*core.Session, 2)
	consoles := make([]*vm.Console, 2)
	reporters := make([]*simnet.Endpoint, 2)
	journals := make([]*span.Journal, 2)
	recs := make([]*flight.Recorder, 2)
	var so0 *obs.SessionObs
	for site := 0; site < 2; site++ {
		console, err := game.Boot()
		if err != nil {
			return pointResult{}, nil, nil, err
		}
		consoles[site] = console
		st := &siteTrace{tr: newActorTracer(epoch, firstID+site), v: v}
		traces[site] = st
		clk := tracedClock{v: v, st: st}
		m := &tracedMachine{console: console, clock: clk, cost: cfg.EmulationTime, st: st}
		sc := core.Config{SiteNo: site, NumPlayers: 2, WaitTimeout: cfg.WaitTimeout}
		so := core.NewSessionObs(reg, site, 0, start0)
		if site == 0 {
			so0 = so
		}
		peers := []core.Peer{{Site: 1 - site, Conn: tracedConn{Conn: conns[site], st: st}}}
		ses, err := core.NewSession(sc, clk, v.Now(), m, peers)
		if err != nil {
			return pointResult{}, nil, nil, err
		}
		ses.SetObs(so)
		j := core.NewInputJourney(reg, site, start0)
		journals[site] = j
		ses.SetJournal(j)
		core.RegisterSessionMetrics(reg, obs.SiteLabels(site), ses)
		rec := flight.NewRecorder(emulated{console}, flight.Options{
			Site: site, Game: cfg.Game, ROM: romImage, Config: ses.Sync().Config(),
			Registry: reg, Tracer: so.Tracer, Journal: j,
		})
		ses.SetFlightRecorder(tracedRecorder{FlightRecorder: rec, st: st})
		recs[site] = rec
		sessions[site] = ses
		reporters[site] = net.MustBind(fmt.Sprintf("reporter%d", site))
	}
	health := obs.NewHealth(obs.HealthConfig{}, obs.HealthSources{
		FrameTime: so0.FrameTime, RTT: so0.RTT, Skew: journals[0].Skew,
		Frames: func() int64 { return int64(consoles[0].FrameCount()) },
	})
	health.Register(reg, 0)

	errs := make([]error, 2)
	done := make([]<-chan struct{}, 2)
	for site := 0; site < 2; site++ {
		site := site
		st, ses, rep := traces[site], sessions[site], reporters[site]
		done[site] = v.Go(func() {
			localInput := func(f int) uint16 {
				_ = rep.SendTo("timeserver", timeserver.EncodeReport(site, f))
				in := harness.PlayerInput(cfg.Seed, site, f)
				// SyncInput runs from here until the session's StepFrame.
				st.syncStart = v.Now()
				st.tr.begin("core.sync")
				return in
			}
			if err := ses.Handshake(10 * time.Second); err != nil {
				errs[site] = err
				return
			}
			var onFrame func(core.FrameInfo)
			if site == 0 {
				onFrame = func(fi core.FrameInfo) {
					if fi.Frame > 0 && fi.Frame%60 == 0 {
						health.Evaluate(v.Now())
					}
				}
			}
			errs[site] = ses.RunFrames(cfg.Frames, localInput, onFrame)
			ses.Drain(5 * time.Second)
		})
	}
	for site := 0; site < 2; site++ {
		<-done[site]
	}
	flushed := v.Go(func() { v.Sleep(10 * time.Millisecond); ts.Stop() })
	<-flushed
	<-tsDone
	for site, err := range errs {
		if err != nil {
			return pointResult{}, nil, nil, fmt.Errorf("traced rtt %v site %d: %w", cfg.RTT, site, err)
		}
	}
	p := pointResult{RTTms: float64(cfg.RTT) / 1e6, Converged: consoles[0].StateHash() == consoles[1].StateHash()}
	for site := 0; site < 2; site++ {
		var ft metrics.Series
		for _, d := range ts.FrameTimes(site) {
			ft.AddDuration(d)
		}
		p.FPS[site] = metrics.FPS(ft.Summarize().Mean)
		p.Frames[site] = consoles[site].FrameCount()
	}
	var sync metrics.Series
	for _, d := range ts.SyncDiffs(0, 1) {
		sync.AddDuration(d)
		skewHist.Observe(int64(max(d, -d)))
	}
	p.SkewMs = sync.Summarize().AbsMean
	return p, traces, &pointState{reg: reg, recs: recs, journals: journals}, nil
}

// lockTrace is the traced sweep's per-layer report.
type lockTrace struct {
	WallS        float64             `json:"wall_s"`
	CPUS         float64             `json:"cpu_s"`
	SiteFrames   int64               `json:"site_frames"`
	Spans        map[string]*spanAgg `json:"spans"`
	Sleeps       int64               `json:"sleeps"`
	Sends        int64               `json:"sends"`
	Recvs        int64               `json:"recvs"`
	EmptyRecvs   int64               `json:"empty_recvs"`
	SyncWaitNs   int64               `json:"sync_wait_ns"`
	Points       []pointResult       `json:"points"`
	PeakRSSMiB   float64             `json:"peak_rss_mib"`
	SpanFile     string              `json:"span_file"`
	SpansWritten int                 `json:"spans_written"`
}

// runTracedSweep is the traced sweep child.
func runTracedSweep(seed int64, spanPath string) (*lockTrace, error) {
	epoch := time.Now()
	out := &lockTrace{Spans: map[string]*spanAgg{}}
	var rings [][]rawSpan
	var kept []*pointState
	cpu0 := processCPU()
	for i, rtt := range harness.PaperRTTs() {
		cfg := sweepConfig(seed)
		cfg.RTT = rtt
		cfg.EmulationTime = harness.DefaultEmulation
		cfg.WaitTimeout = harness.DefaultTimeout
		p, sts, state, err := tracedPoint(cfg, epoch, 2*i+1)
		if err != nil {
			return nil, err
		}
		kept = append(kept, state)
		out.Points = append(out.Points, p)
		for _, st := range sts {
			mergeAggs(out.Spans, st.tr.agg)
			out.Sleeps += st.sleeps
			out.Sends += st.sends
			out.Recvs += st.recvs
			out.EmptyRecvs += st.emptyRecv
			out.SyncWaitNs += int64(st.syncWait)
			out.SiteFrames += st.frames
			rings = append(rings, st.tr.ring)
		}
	}
	out.WallS = time.Since(epoch).Seconds()
	out.CPUS = (processCPU() - cpu0).Seconds()
	rss, err := peakRSSMiB(0)
	if err != nil {
		return nil, err
	}
	out.PeakRSSMiB = rss
	runtime.KeepAlive(kept)
	if spanPath != "" {
		if err := writeSpans(spanPath, rings...); err != nil {
			return nil, err
		}
		out.SpanFile = spanPath
		for _, r := range rings {
			out.SpansWritten += len(r)
		}
	}
	return out, nil
}
