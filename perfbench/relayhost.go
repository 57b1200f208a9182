package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"retrolock/internal/lobby"
	"retrolock/internal/obs"
	"retrolock/internal/obs/history"
	"retrolock/internal/relay"
)

// The traced relay host: the relay components wired as cmd/relayd wires
// them in its ops configuration (Stats and anomaly rings, fleet grading,
// lobby placement, /metrics plus history with relayd's fleet-health rule),
// hosted in a child process of the benchmark with every relay.Front
// wrapped. The fleet tick and the history sample run from this host's own
// ticker at relayd's cadence so they can be timed. It logs its addresses the
// way relayd does, so the generator drives it unchanged, and writes its
// per-layer report to stdout on SIGTERM.

// threadCPU returns the calling thread's CPU time.
func threadCPU() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// relayTrace accumulates the relay's per-layer numbers between the window
// marks the generator sets.
type relayTrace struct {
	mu     sync.Mutex
	epoch  time.Time
	active bool

	recvCalls, recvItems int64
	recvCPU              int64
	routeCPU, routeItems int64
	sendCalls, sendItems int64
	sendWall             int64
	residence            []float64 // µs
	inflight             map[uint64]int64
	fleetTick, histTick  []float64 // ns per call
	stepSum0, stepCnt0   int64
	stepSum, stepCnt     int64
	cpu0, cpu            time.Duration

	reader  *actorTracer // reader-goroutine spans (IDs from 1<<40)
	sends   []rawSpan    // ring of Send spans, under mu (IDs from 2<<40)
	next    int
	sendSeq int64

	// Threads the wrappers locked their goroutines to: the reader's and each
	// shard loop's. A locked thread runs only its goroutine, so its CPU time
	// is that loop's CPU time.
	readerTid  int
	shardTids  map[int]bool
	readerCPU0 time.Duration
	shardCPU0  time.Duration
	readerCPU  time.Duration
	shardCPU   time.Duration
	sendCPU    int64
}

// residenceKey identifies a generator payload by session index, site and
// sequence number.
func residenceKey(buf []byte) (uint64, bool) {
	_, site, p, ok := relay.ParseHeader(buf)
	if !ok || len(p) != payloadLen {
		return 0, false
	}
	return uint64(binary.BigEndian.Uint32(p[8:]))<<33 | uint64(site&1)<<32 | uint64(binary.BigEndian.Uint32(p[12:])), true
}

// tracedFront wraps one relay.Front. Recv runs on the front's single reader
// goroutine, which the wrapper locks to its OS thread so thread CPU time
// separates the reader's work from its blocking; Send runs on any shard.
type tracedFront struct {
	relay.Front
	rt          *relayTrace
	locked      bool
	lastCPU     int64
	lastN       int64
	haveLastRet bool
}

func (f *tracedFront) Recv(ms []relay.Message) (int, error) {
	rt := f.rt
	if !f.locked {
		runtime.LockOSThread()
		f.locked = true
		rt.mu.Lock()
		rt.readerTid = syscall.Gettid()
		rt.mu.Unlock()
	}
	c0 := threadCPU()
	rt.reader.begin("relay.front_recv")
	n, err := f.Front.Recv(ms)
	w1 := time.Now()
	rt.reader.end("relay.front_recv", int64(n))
	c1 := threadCPU()
	rt.mu.Lock()
	if rt.active {
		if f.haveLastRet {
			// Route (and the reader loop) ran between the last Recv's return
			// and this call.
			rt.routeCPU += c0 - f.lastCPU
			rt.routeItems += f.lastN
		}
		rt.recvCalls++
		rt.recvItems += int64(n)
		rt.recvCPU += c1 - c0
		at := w1.UnixNano()
		for i := 0; i < n; i++ {
			if k, ok := residenceKey(ms[i].Buf); ok {
				rt.inflight[k] = at
			}
		}
	}
	rt.mu.Unlock()
	f.lastCPU, f.lastN, f.haveLastRet = c1, int64(n), true
	return n, err
}

func (f *tracedFront) Send(ms []relay.Message) (int, error) {
	rt := f.rt
	rt.lockShard()
	c0 := threadCPU()
	w0 := time.Now()
	n, err := f.Front.Send(ms)
	w1 := time.Now()
	c1 := threadCPU()
	rt.mu.Lock()
	if rt.active {
		rt.sendCPU += c1 - c0
		rt.sendCalls++
		rt.sendItems += int64(len(ms))
		rt.sendWall += int64(w1.Sub(w0))
		at := w0.UnixNano()
		for i := range ms {
			if k, ok := residenceKey(ms[i].Buf); ok {
				if t, ok := rt.inflight[k]; ok {
					rt.residence = append(rt.residence, float64(at-t)/1e3)
					delete(rt.inflight, k)
				}
			}
		}
	}
	rt.sendSeq++
	s := rawSpan{Name: "relay.front_send", ID: 2<<40 + rt.sendSeq, Start: int64(w0.Sub(rt.epoch)), End: int64(w1.Sub(rt.epoch))}
	if len(rt.sends) < cap(rt.sends) {
		rt.sends = append(rt.sends, s)
	} else {
		rt.sends[rt.next] = s
		rt.next = (rt.next + 1) % len(rt.sends)
	}
	rt.mu.Unlock()
	return n, err
}

// lockShard locks the calling shard goroutine to its thread on its first
// Send. A thread already in shardTids is locked to the goroutine running on
// it, which must therefore be this one.
func (rt *relayTrace) lockShard() {
	tid := syscall.Gettid()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.shardTids[tid] {
		return
	}
	runtime.LockOSThread()
	rt.shardTids[syscall.Gettid()] = true
}

// threadsCPU sums the CPU time of the locked threads.
func (rt *relayTrace) threadsCPU() (reader, shards time.Duration) {
	pid := os.Getpid()
	if rt.readerTid != 0 {
		if u, s, err := procCPU(pid, rt.readerTid); err == nil {
			reader = u + s
		}
	}
	for tid := range rt.shardTids {
		if u, s, err := procCPU(pid, tid); err == nil {
			shards += u + s
		}
	}
	return reader, shards
}

// relayHostReport is the traced host's output.
type relayHostReport struct {
	CPUS         float64   `json:"cpu_s"`
	RecvCalls    int64     `json:"recv_calls"`
	RecvItems    int64     `json:"recv_items"`
	RecvCPUNs    int64     `json:"recv_cpu_ns"`
	RouteCPUNs   int64     `json:"route_cpu_ns"`
	RouteItems   int64     `json:"route_items"`
	SendCalls    int64     `json:"send_calls"`
	SendItems    int64     `json:"send_items"`
	SendWallNs   int64     `json:"send_wall_ns"`
	SendCPUNs    int64     `json:"send_cpu_ns"`
	ReaderCPUNs  int64     `json:"reader_thread_cpu_ns"`
	ShardCPUNs   int64     `json:"shard_threads_cpu_ns"`
	ShardThreads int       `json:"shard_threads"`
	StepSumNs    int64     `json:"step_sum_ns"`
	StepCount    int64     `json:"step_count"`
	Residence    summary   `json:"residence_us"`
	FleetTickNs  []float64 `json:"fleet_tick_ns"`
	HistSampleNs []float64 `json:"history_sample_ns"`
	PeakRSSMiB   float64   `json:"peak_rss_mib"`
	SpansWritten int       `json:"spans_written"`
}

// runRelayHost is the traced relay child. It serves until SIGTERM.
func runRelayHost(workDir, spanPath string, churn bool) error {
	log.SetFlags(0)
	log.SetPrefix("relayd: ")
	rt := &relayTrace{epoch: time.Now(), inflight: map[uint64]int64{}, sends: make([]rawSpan, 0, ringSpans), shardTids: map[int]bool{}}
	rt.reader = newActorTracer(rt.epoch, 1)
	uf, err := relay.ListenUDPFront("127.0.0.1:0")
	if err != nil {
		return err
	}
	front := &tracedFront{Front: uf, rt: rt}
	cfg := relay.Config{
		Shards:             nproc(),
		Stats:              true,
		AutoCaptureRecords: 64,
		AutoCaptureBytes:   8 << 10,
	}
	lobbyTTL := 10 * time.Minute
	if churn {
		cfg.SessionTTL, lobbyTTL = churnTTL, churnLobbyTTL
	}
	d, err := relay.NewDaemon(cfg, []relay.Front{front})
	if err != nil {
		return err
	}
	d.Start()
	capDir, err := os.MkdirTemp(workDir, "autocapture-")
	if err != nil {
		return err
	}
	var svc *history.Service // set below; OnCapture files bundles against its incident log
	fl, err := relay.NewFleet(d, relay.FleetConfig{
		TopK:   16,
		Window: time.Second,
		Health: obs.HealthConfig{FrameTarget: 2 * 16670 * time.Microsecond},
		OnCapture: func(ac relay.AnomalyCapture) {
			path := fmt.Sprintf("%s/anomaly-%s-%s.rkcp", capDir, ac.Token, ac.State)
			if err := os.WriteFile(path, ac.Capture.Encode(), 0o644); err != nil {
				log.Printf("autocapture: %v", err)
				return
			}
			if svc != nil {
				svc.Log.AttachCapture("", history.CaptureRef{Session: ac.Token.String(), Path: path, AtNs: time.Now().UnixNano()})
			}
		},
	})
	if err != nil {
		return err
	}
	srv, err := lobby.ListenConfig("127.0.0.1:0", lobby.Config{TTL: lobbyTTL, Placer: relay.LobbyPlacer{D: d}})
	if err != nil {
		return err
	}
	log.Printf("admission lobby on %s (traced host)", srv.Addr())
	go func() { _ = srv.Serve() }()

	reg := obs.NewRegistry()
	relay.RegisterMetrics(reg, d)
	lobby.RegisterMetrics(reg, srv)
	obs.RegisterProcessMetrics(reg)
	fl.Register(reg)
	health := obs.NewHealth(obs.HealthConfig{}, obs.HealthSources{FrameTime: d.StepTime})
	health.Register(reg, 0)
	svc = history.Wire(reg, history.Options{
		Rules: []history.Rule{{
			Name:   "fleet-session-health",
			Source: history.SourceGauge,
			Bad: []string{
				obs.Key(relay.MetricSessionVerdicts, obs.Labels{"state": "degraded"}),
				obs.Key(relay.MetricSessionVerdicts, obs.Labels{"state": "infeasible"}),
			},
			Total:      []string{relay.MetricSessionTracked},
			Budget:     0.05,
			FastWindow: time.Minute,
			SlowWindow: 5 * time.Minute,
			Threshold:  4,
		}},
		OnTransition: func(ev history.Event) {
			if !ev.Firing {
				return
			}
			at := time.Unix(0, ev.AtNs)
			snap := fl.Snapshot()
			svc.Log.Annotate(ev.Name, at, "fleet: %d tracked, %d degraded, %d infeasible, %d flips",
				snap.Summary.Tracked, snap.Summary.Degraded, snap.Summary.Infeasible, snap.Summary.Flips)
			fl.CaptureBurning(at)
		},
	})
	reg.Handle("/bench/window", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.mark(r.URL.Query().Get("edge") == "start", d)
		fmt.Fprintln(w, "ok")
	}))
	stop := make(chan struct{})
	var tickWg sync.WaitGroup
	tickWg.Add(1)
	go func() {
		defer tickWg.Done()
		base := time.NewTicker(svc.Store.BaseStep())
		grade := time.NewTicker(time.Second)
		defer base.Stop()
		defer grade.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-base.C:
				health.Evaluate(now)
				t0 := time.Now()
				svc.Sample(now)
				rt.tick(&rt.histTick, time.Since(t0))
			case now := <-grade.C:
				t0 := time.Now()
				fl.Tick(now)
				rt.tick(&rt.fleetTick, time.Since(t0))
			}
		}
	}()
	osrv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		return err
	}
	log.Printf("observability on http://%s/ (traced host)", osrv.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	<-sigs
	close(stop)
	tickWg.Wait()
	_ = srv.Close()
	_ = d.Close()
	fl.FlushPending(time.Now())
	fl.Close()
	_ = osrv.Close()

	rep := rt.report()
	if rss, err := peakRSSMiB(0); err == nil {
		rep.PeakRSSMiB = rss
	}
	if spanPath != "" {
		rt.mu.Lock()
		err := writeSpans(spanPath, rt.reader.ring, rt.sends)
		rep.SpansWritten = len(rt.reader.ring) + len(rt.sends)
		rt.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func (rt *relayTrace) tick(dst *[]float64, d time.Duration) {
	rt.mu.Lock()
	if rt.active {
		*dst = append(*dst, float64(d))
	}
	rt.mu.Unlock()
}

// mark opens or closes the measurement window.
func (rt *relayTrace) mark(start bool, d *relay.Daemon) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if start {
		rt.active = true
		rt.cpu0 = processCPU()
		rt.stepSum0, rt.stepCnt0 = d.StepTime.Sum(), d.StepTime.Count()
		rt.readerCPU0, rt.shardCPU0 = rt.threadsCPU()
		return
	}
	r, sh := rt.threadsCPU()
	rt.readerCPU, rt.shardCPU = r-rt.readerCPU0, sh-rt.shardCPU0
	rt.active = false
	rt.cpu = processCPU() - rt.cpu0
	rt.stepSum, rt.stepCnt = d.StepTime.Sum()-rt.stepSum0, d.StepTime.Count()-rt.stepCnt0
}

func (rt *relayTrace) report() relayHostReport {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return relayHostReport{
		CPUS:         rt.cpu.Seconds(),
		RecvCalls:    rt.recvCalls,
		RecvItems:    rt.recvItems,
		RecvCPUNs:    rt.recvCPU,
		RouteCPUNs:   rt.routeCPU,
		RouteItems:   rt.routeItems,
		SendCalls:    rt.sendCalls,
		SendItems:    rt.sendItems,
		SendWallNs:   rt.sendWall,
		SendCPUNs:    rt.sendCPU,
		ReaderCPUNs:  int64(rt.readerCPU),
		ShardCPUNs:   int64(rt.shardCPU),
		ShardThreads: len(rt.shardTids),
		StepSumNs:    rt.stepSum,
		StepCount:    rt.stepCnt,
		Residence:    summarize(rt.residence),
		FleetTickNs:  rt.fleetTick,
		HistSampleNs: rt.histTick,
	}
}
