package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"retrolock/internal/lobby"
	"retrolock/internal/relay"
)

// The relay half of every workload: sessions admitted through relayd's
// lobby, then an open-loop generator sending 2 sites x 60 Hz of 24-byte
// payloads per session over the host's loopback interface. One generator
// process (this one) with nproc sockets and at most nproc admission calls in
// flight.

const (
	relayHz    = 60
	tick       = time.Second / relayHz
	payloadLen = 24

	steadySessions = 512
	// churnSessions matches steady's population: at half of it (256, about
	// 31k datagrams/s) relayd idles between bursts, and the per-datagram
	// cost of waking it varied run to run by a third (interquartile range
	// over median of ten seeds), which no bound up to 25% can gate.
	churnSessions = 512
	churnMinLife  = 2 * time.Second
	churnMaxLife  = 6 * time.Second
	// relayd's -ttl and -lobby-ttl for churn: silent sessions leave the
	// relay table within a few seconds; the lobby keeps a placement longer
	// than any session lives, since it only refreshes on JOIN.
	churnTTL      = 3 * time.Second
	churnLobbyTTL = 10 * time.Second

	// sendSlots is how many send instants each 60 Hz tick has.
	sendSlots = 16

	admitTimeout = 5 * time.Second
	bindTimeout  = 10 * time.Second
	drainWait    = 300 * time.Millisecond
)

// relayLoad is one relay workload's shape.
type relayLoad struct {
	churn    bool
	sessions int
	warmup   time.Duration
}

func loadFor(workload string) (relayLoad, bool) {
	switch workload {
	case "steady":
		return relayLoad{sessions: steadySessions, warmup: time.Second}, true
	case "churn":
		// Two seconds lets the first generation start dying, so the window
		// sees admission at its steady rate.
		return relayLoad{churn: true, sessions: churnSessions, warmup: 2 * time.Second}, true
	}
	return relayLoad{}, false
}

// relaydProc is the relay process under load: cmd/relayd in the ops
// configuration, or the traced host. Both log their lobby and obs addresses
// the same way.
type relaydProc struct {
	cmd        *exec.Cmd
	lobby, obs string
	exited     chan error
	logTail    *tailBuffer
	stdout     bytes.Buffer
	traced     bool
}

func nproc() int { return runtime.NumCPU() }

func startProc(o benchOpts, path string, args ...string) (*relaydProc, error) {
	cmd := exec.Command(path, args...)
	cmd.Dir = o.work
	p := &relaydProc{cmd: cmd, exited: make(chan error, 1), logTail: &tailBuffer{}}
	cmd.Stdout = &p.stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(path), err)
	}
	addrs := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		var lob string
		for sc.Scan() {
			line := sc.Text()
			p.logTail.add(line)
			if rest, ok := strings.CutPrefix(line, "relayd: admission lobby on "); ok {
				lob, _, _ = strings.Cut(rest, " ")
			}
			if rest, ok := strings.CutPrefix(line, "relayd: observability on http://"); ok {
				ob, _, _ := strings.Cut(rest, "/")
				addrs <- [2]string{lob, ob}
			}
		}
		p.exited <- cmd.Wait()
	}()
	select {
	case a := <-addrs:
		p.lobby, p.obs = a[0], a[1]
		return p, nil
	case err := <-p.exited:
		return nil, fmt.Errorf("%s exited during start-up (%v): %s", filepath.Base(path), err, p.logTail)
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		<-p.exited
		return nil, fmt.Errorf("%s did not report its addresses: %s", filepath.Base(path), p.logTail)
	}
}

func (p *relaydProc) metrics() (map[string]float64, error) {
	resp, err := http.Get("http://" + p.obs + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseRelayMetrics(resp.Body)
}

// stop sends SIGTERM and requires a clean exit.
func (p *relaydProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.exited:
		if err != nil {
			return fmt.Errorf("relayd exited uncleanly on SIGTERM: %v: %s", err, p.logTail)
		}
		return nil
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("relayd did not exit within 15 s of SIGTERM")
	}
}

// kill ends relayd on an error path.
func (p *relaydProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// tailBuffer keeps relayd's last log lines for error messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(l string) {
	t.mu.Lock()
	t.lines = append(t.lines, l)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
	t.mu.Unlock()
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}

// parseRelayMetrics sums retrolock_relay_* series from Prometheus text over
// their shard label, keeping the reason label as a "/reason" suffix.
func parseRelayMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "retrolock_relay_") && !strings.HasPrefix(line, "retrolock_lobby_") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := line[:sp]
		name, labels, _ := strings.Cut(key, "{")
		if strings.Contains(labels, `shard="front"`) {
			name += "/front"
		}
		if i := strings.Index(labels, `reason="`); i >= 0 {
			reason, _, _ := strings.Cut(labels[i+len(`reason="`):], `"`)
			name += "/" + reason
		}
		out[name] += v
	}
	return out, sc.Err()
}

// genSession is one generated session: its placement, the 24-byte payload
// identity it must come back with, and the per-site send and receipt state.
// sent[s] is written only by the sender goroutine owning site s; seen and
// got for datagrams from site s only by the receiver of the other site's
// socket.
type genSession struct {
	idx   uint32
	slot  int
	token relay.Token
	front [2]*syscall.SockaddrInet4 // one per sending site: Sendto fills it in
	nonce uint64
	start int64 // generator ns; sends due before it are skipped
	dies  int64 // generator ns; sends due at or after it stop the session

	sent [2]uint32
	got  [2]uint32
	seen [2][]uint64
}

// generator drives one relay target.
type generator struct {
	load   relayLoad
	socks  []*genSock
	epoch  time.Time
	maxSeq int

	seed     int64
	mu       sync.RWMutex
	byToken  map[relay.Token]*genSession
	sessions []*genSession
	slots    []atomic.Pointer[genSession]
	slotGen  []uint64 // sessions each slot has held, under mu
	nextIdx  uint32
	codes    atomic.Uint64 // lobby session codes

	// Measurement window, generator ns.
	w0, w1 int64

	recv        []*recvState
	send        []*sendState
	admits      []float64 // admission latency, ms, for the reported set
	admitsAll   int
	admitFails  int
	violations  []string
	violationMu sync.Mutex
	// Live sessions sampled every 10 ms, summed per second of the window.
	liveSum []float64
	liveN   []int
	// onMark, when set, runs from the monitor goroutine at each second of
	// the window: i = 0 as it opens, i = len(liveSum) as it closes.
	onMark func(i int)
}

type recvState struct {
	lat       []float64 // ms, datagrams scheduled in the window
	sched     []int64   // their scheduled instants, for per-second windows
	delivered int       // in-window deliveries
	all       int
}

type sendState struct {
	late     []float64 // ms, actual minus scheduled send, in window
	sentWin  int
	sentAll  int
	bindSent int
}

func newGenerator(load relayLoad, seed int64, horizon time.Duration) (*generator, error) {
	g := &generator{
		load:    load,
		epoch:   time.Now(),
		maxSeq:  int(horizon/tick) + relayHz,
		byToken: map[relay.Token]*genSession{},
		slots:   make([]atomic.Pointer[genSession], load.sessions),
		slotGen: make([]uint64, load.sessions),
		seed:    seed,
	}
	for i := 0; i < nproc(); i++ {
		c, err := newGenSock()
		if err != nil {
			g.close()
			return nil, err
		}
		g.socks = append(g.socks, c)
		g.recv = append(g.recv, &recvState{})
		g.send = append(g.send, &sendState{})
	}
	return g, nil
}

func (g *generator) close() {
	for _, c := range g.socks {
		c.close()
	}
}

// genSock is one generator socket: a blocking loopback UDP socket driven by
// plain syscalls, so the generator's cost per datagram stays small and owes
// nothing to the relay's own front code.
type genSock struct {
	fd   int
	stop atomic.Bool
}

// recvTimeout bounds each blocking read so the receiver notices stop.
const recvTimeout = 100 * time.Millisecond

func newGenSock() (*genSock, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("generator socket: %w", err)
	}
	s := &genSock{fd: fd}
	tv := syscall.NsecToTimeval(int64(recvTimeout))
	for _, err := range []error{
		syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}),
		syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<20),
		syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 4<<20),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv),
	} {
		if err != nil {
			s.close()
			return nil, fmt.Errorf("generator socket: %w", err)
		}
	}
	return s, nil
}

func (s *genSock) close() { _ = syscall.Close(s.fd) }

func (g *generator) now() int64 { return int64(time.Since(g.epoch)) }

// sockOf places the two sites of a slot on different sockets (when there
// are two or more), so a miswired delivery lands on the wrong socket.
func (g *generator) sockOf(slot, site int) int { return (slot + site) % len(g.socks) }

func (g *generator) violate(format string, args ...any) {
	g.violationMu.Lock()
	if len(g.violations) < 20 {
		g.violations = append(g.violations, fmt.Sprintf(format, args...))
	}
	g.violationMu.Unlock()
}

// admitOne runs one session's admission through the lobby: site 0's
// RendezvousPlaced is started first and site 1's JOIN completes the pair.
// The latency runs from site 1's call to both sites holding the RELAY
// placement.
func (g *generator) admitOne(lobbyAddr, code string) (lobby.Placement, time.Duration, error) {
	var p0 lobby.Placement
	var err0 error
	done := make(chan struct{})
	go func() {
		defer close(done)
		p0, err0 = lobby.RendezvousPlaced(lobbyAddr, code, 0, admitTimeout)
	}()
	t0 := time.Now()
	p1, err1 := lobby.RendezvousPlaced(lobbyAddr, code, 1, admitTimeout)
	<-done
	d := time.Since(t0)
	if err0 != nil {
		return lobby.Placement{}, d, err0
	}
	if err1 != nil {
		return lobby.Placement{}, d, err1
	}
	if p0 != p1 {
		return lobby.Placement{}, d, fmt.Errorf("session %s: sites placed differently (%v vs %v)", code, p0, p1)
	}
	return p0, d, nil
}

// newSession registers an admitted placement.
func (g *generator) newSession(slot int, pl lobby.Placement, start int64) (*genSession, error) {
	tok, err := relay.ParseToken(pl.Token)
	if err != nil {
		return nil, err
	}
	ap, err := netip.ParseAddrPort(pl.Addr)
	if err != nil || !ap.Addr().Is4() {
		return nil, fmt.Errorf("placement front %q is not an IPv4 address: %v", pl.Addr, err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.byToken[tok]; dup {
		return nil, fmt.Errorf("token %s placed twice", tok)
	}
	gen := g.slotGen[slot]
	g.slotGen[slot]++
	s := &genSession{idx: g.nextIdx, slot: slot, token: tok, nonce: g.draw(slot, gen, 0), start: start, dies: 1<<62 - 1}
	for site := range s.front {
		s.front[site] = &syscall.SockaddrInet4{Addr: ap.Addr().As4(), Port: int(ap.Port())}
	}
	if g.load.churn {
		life := churnMinLife + time.Duration(g.draw(slot, gen, 1)%uint64(churnMaxLife-churnMinLife))
		s.dies = start + int64(life)
	}
	words := (g.maxSeq + 63) / 64
	s.seen[0], s.seen[1] = make([]uint64, words), make([]uint64, words)
	g.nextIdx++
	g.byToken[tok] = s
	g.sessions = append(g.sessions, s)
	return s, nil
}

// draw is the seed's value number k for a slot's gen-th session: a
// splitmix64 hash, so each slot gets the same nonces and lifetimes for a
// seed whatever order admissions complete in.
func (g *generator) draw(slot int, gen uint64, k uint64) uint64 {
	x := uint64(g.seed)*0x9e3779b97f4a7c15 ^ uint64(slot)<<40 ^ gen<<8 ^ k
	for i := 0; i < 2; i++ {
		x += 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// admitInitial admits the standing population, at most nproc calls (two per
// admission) in flight, and installs it in the slots.
func (g *generator) admitInitial(t *relaydProc, codePrefix string, record bool) error {
	jobs := make(chan int)
	errs := make(chan error, g.load.sessions)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < admitWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for slot := range jobs {
				pl, d, err := g.admitOne(t.lobby, fmt.Sprintf("%s-%d", codePrefix, slot))
				mu.Lock()
				g.admitsAll++
				if err != nil {
					g.admitFails++
				} else if record {
					g.admits = append(g.admits, float64(d)/1e6)
				}
				mu.Unlock()
				if err != nil {
					errs <- err
					continue
				}
				s, err := g.newSession(slot, pl, 0)
				if err != nil {
					errs <- err
					continue
				}
				g.slots[slot].Store(s)
			}
		}()
	}
	for i := 0; i < g.load.sessions; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(errs)
	for err := range errs {
		return fmt.Errorf("initial admission: %w", err)
	}
	return nil
}

func admitWorkers() int { return max(1, nproc()/2) }

// bindAll sends each site's header-only bind datagram (what relay.ClientConn
// sends before traffic) and waits until the relay counts every one.
func (g *generator) bindAll(t *relaydProc) error {
	buf := make([]byte, relay.HeaderLen)
	for slot := range g.slots {
		s := g.slots[slot].Load()
		for site := 0; site < 2; site++ {
			relay.PutHeader(buf, s.token, site)
			k := g.sockOf(slot, site)
			if err := syscall.Sendto(g.socks[k].fd, buf, 0, s.front[site]); err != nil {
				return fmt.Errorf("bind datagram: %w", err)
			}
			g.send[k].bindSent++
		}
	}
	want := float64(2 * len(g.slots))
	deadline := time.Now().Add(bindTimeout)
	for {
		m, err := t.metrics()
		if err != nil {
			return err
		}
		if m[relay.MetricBinds] >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %.0f of %.0f sites bound after %v", m[relay.MetricBinds], want, bindTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stream is one (slot, site) send schedule: a fixed offset within the tick,
// so the load is spread evenly across it.
//
// Offsets are quantised to sendSlots instants per tick, about a millisecond
// apart: a sender cannot sleep for the 16 µs between evenly spaced sends, so
// unquantised offsets leave the burst sizes the relay sees to the sender's
// wake-up latency, and the relay's batching, CPU and latency with them.
type stream struct {
	slot, site int
	off        int64
}

// run drives the open-loop load from start for warmup+window, then lets
// in-flight datagrams land. Churn replacements are admitted while it runs.
func (g *generator) run(t *relaydProc, window time.Duration, codePrefix string) {
	start := g.now() + int64(20*time.Millisecond)
	g.w0 = start + int64(g.load.warmup)
	g.w1 = g.w0 + int64(window)
	end := g.w1

	nStreams := 2 * len(g.slots)
	per := make([][]stream, len(g.socks))
	for i := 0; i < nStreams; i++ {
		slot, site := i/2, i%2
		k := g.sockOf(slot, site)
		// Socket k sends at its own phase within each slot, so the sockets'
		// bursts do not coincide.
		q := int64(i)*sendSlots/int64(nStreams)*int64(len(g.socks)) + int64(k)
		per[k] = append(per[k], stream{slot: slot, site: site, off: int64(tick) * q / (sendSlots * int64(len(g.socks)))})
	}

	// Sample buffers sized for the window up front: growing them would make
	// the generator allocate, and collect garbage, while it measures.
	perSock := 2*len(g.slots)*int(window/tick)/len(g.socks) + 2*len(g.slots)
	for k := range g.socks {
		g.recv[k].lat = make([]float64, 0, perSock)
		g.recv[k].sched = make([]int64, 0, perSock)
		g.send[k].late = make([]float64, 0, perSock)
	}
	var recvWg, sendWg, admitWg sync.WaitGroup
	for k := range g.socks {
		k := k
		recvWg.Add(1)
		go func() { defer recvWg.Done(); g.receive(k) }()
	}
	requests := make(chan int, len(g.slots))
	stopAdmit := make(chan struct{})
	if g.load.churn {
		for w := 0; w < admitWorkers(); w++ {
			admitWg.Add(1)
			go func() {
				defer admitWg.Done()
				g.replace(t, requests, stopAdmit, codePrefix)
			}()
		}
	}
	for k := range g.socks {
		k := k
		sendWg.Add(1)
		go func() { defer sendWg.Done(); g.sendLoop(k, per[k], start, end, requests) }()
	}
	// Live sessions over the window, sampled every 10 ms, and the
	// per-second marks.
	secs := int(window / time.Second)
	g.liveSum, g.liveN = make([]float64, secs), make([]int, secs)
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		mark := 0
		for n := g.now(); mark <= secs; n = g.now() {
			if n >= g.w0+int64(mark)*int64(time.Second) {
				if g.onMark != nil {
					g.onMark(mark)
				}
				mark++
			}
			if sec := (n - g.w0) / int64(time.Second); n >= g.w0 && int(sec) < secs {
				live := 0
				for i := range g.slots {
					if s := g.slots[i].Load(); s != nil && n >= s.start && n < s.dies {
						live++
					}
				}
				g.liveSum[sec] += float64(live)
				g.liveN[sec]++
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	sendWg.Wait()
	<-monitorDone
	close(stopAdmit)
	admitWg.Wait()
	time.Sleep(drainWait)
	for _, c := range g.socks {
		c.stop.Store(true)
	}
	recvWg.Wait()
}

// replace admits fresh sessions into slots whose session went silent.
func (g *generator) replace(t *relaydProc, requests chan int, stop chan struct{}, codePrefix string) {
	for {
		var slot int
		select {
		case slot = <-requests:
		case <-stop:
			return
		}
		code := fmt.Sprintf("%s-c%d", codePrefix, g.codes.Add(1))
		t0 := g.now()
		pl, d, err := g.admitOne(t.lobby, code)
		g.mu.Lock()
		g.admitsAll++
		inWindow := t0 >= g.w0 && t0 < g.w1
		if err != nil {
			g.admitFails++
		} else if inWindow {
			g.admits = append(g.admits, float64(d)/1e6)
		}
		g.mu.Unlock()
		if err != nil {
			requests <- slot // the slot still wants a session
			continue
		}
		start := g.now()
		if start >= g.w1-int64(2*tick) {
			// Too close to the end for both sites to send: a session whose
			// second site never binds would strand its first payloads in
			// the relay's pending ring, which no real client pair does.
			continue
		}
		s, err := g.newSession(slot, pl, start)
		if err != nil {
			g.violate("churn admission: %v", err)
			continue
		}
		g.slots[slot].Store(s)
	}
}

func (g *generator) sendLoop(k int, streams []stream, start, end int64, requests chan int) {
	// The sender sleeps in nanosleep on a thread of its own: the kernel's
	// high-resolution timer wakes it within tens of microseconds, where the
	// Go timer, through the netpoller, rounds a sub-millisecond sleep up to
	// a millisecond.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	sock, st := g.socks[k], g.send[k]
	buf := make([]byte, relay.HeaderLen+payloadLen)
	for base := start; base < end; base += int64(tick) {
		for _, sm := range streams {
			due := base + sm.off
			now := g.now()
			if due > now {
				ts := syscall.NsecToTimespec(due - now)
				_ = syscall.Nanosleep(&ts, nil)
				now = g.now()
			}
			s := g.slots[sm.slot].Load()
			if s == nil || due < s.start {
				continue
			}
			if due >= s.dies {
				// The session goes silent; whichever site notices first
				// asks for its replacement.
				if g.slots[sm.slot].CompareAndSwap(s, nil) {
					requests <- sm.slot
				}
				continue
			}
			seq := s.sent[sm.site]
			if int(seq) >= g.maxSeq {
				continue
			}
			n := relay.PutHeader(buf, s.token, sm.site)
			p := buf[n:]
			binary.BigEndian.PutUint64(p[0:], uint64(due))
			binary.BigEndian.PutUint32(p[8:], s.idx)
			binary.BigEndian.PutUint32(p[12:], seq)
			binary.BigEndian.PutUint64(p[16:], s.nonce)
			if err := syscall.Sendto(sock.fd, buf, 0, s.front[sm.site]); err != nil {
				g.violate("send: %v", err)
				continue
			}
			s.sent[sm.site] = seq + 1
			st.sentAll++
			if due >= g.w0 && due < g.w1 {
				st.sentWin++
				st.late = append(st.late, float64(now-due)/1e6)
			}
		}
	}
}

// receive checks every datagram arriving at socket k: it must be a payload
// of a known session, from that session's other site, carrying that
// session's identity and a sequence number not delivered before.
func (g *generator) receive(k int) {
	// A blocking read on a thread of its own: the kernel wakes this thread
	// directly, with no netpoller hop.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	sock, st := g.socks[k], g.recv[k]
	buf := make([]byte, 2048)
	for {
		n, err := syscall.Read(sock.fd, buf)
		if err != nil || n < 0 {
			if sock.stop.Load() {
				return
			}
			if err != nil && err != syscall.EAGAIN && err != syscall.EINTR {
				g.violate("socket %d: read: %v", k, err)
				return
			}
			continue
		}
		at := g.now()
		tok, site, p, ok := relay.ParseHeader(buf[:n])
		if !ok || len(p) != payloadLen || site > 1 {
			g.violate("socket %d: malformed delivery of %d bytes", k, n)
			continue
		}
		g.mu.RLock()
		s := g.byToken[tok]
		g.mu.RUnlock()
		if s == nil {
			g.violate("socket %d: delivery for unknown token %s", k, tok)
			continue
		}
		due := int64(binary.BigEndian.Uint64(p[0:]))
		idx := binary.BigEndian.Uint32(p[8:])
		seq := binary.BigEndian.Uint32(p[12:])
		nonce := binary.BigEndian.Uint64(p[16:])
		switch {
		case g.sockOf(s.slot, 1-site) != k:
			g.violate("miswire: session %d site %d datagram arrived at socket %d", s.idx, site, k)
			continue
		case idx != s.idx || nonce != s.nonce:
			g.violate("token %s carried session %d's payload", tok, idx)
			continue
		case int(seq) >= g.maxSeq:
			g.violate("session %d site %d: sequence %d never sent", s.idx, site, seq)
			continue
		}
		w, bit := seq/64, uint64(1)<<(seq%64)
		if s.seen[site][w]&bit != 0 {
			g.violate("session %d site %d: sequence %d delivered twice", s.idx, site, seq)
			continue
		}
		s.seen[site][w] |= bit
		s.got[site]++
		st.all++
		if due >= g.w0 && due < g.w1 {
			st.delivered++
			st.lat = append(st.lat, float64(at-due)/1e6)
			st.sched = append(st.sched, due)
		}
	}
}

// relayOutcome is what one relay run measured.
type relayOutcome struct {
	setups       []float64 // seconds, exec until admitted and bound
	sessionsLive float64
	livePerSec   []float64
	// Per-second sessions per relay core; the reported figure is their
	// median, so a disturbance shorter than half the window cannot move it.
	perCorePerSec []float64
	stealShare    float64       // host CPU stolen by other guests over the window
	cpu           time.Duration // relay CPU over the window
	cpuUser       time.Duration
	genCPU        time.Duration // generator CPU over the window
	markWallS     float64       // wall time between the window marks
	sentWin       int
	deliveredWin  int
	sentAll       int
	deliveredAll  int
	latency       summary // ms, whole window
	latencyP99Med float64 // median of per-second p99s, ms
	latencyP50Med float64
	lateness      summary // ms
	admit         summary // ms
	admitsAll     int
	admitFails    int
	// instanceAdmits counts admissions made on the measured relay instance.
	instanceAdmits int
	peakRSSMiB     float64 // relay VmHWM at the end of the load
	rssMiB         float64 // median relay VmRSS over the window's seconds
	counters       map[string]float64
	violations     []string
}

// check adds the relay's end-of-run correctness checks: deliveries
// never exceed sends, and the relay's own counters conserve datagrams.
func (g *generator) check(m map[string]float64) {
	for _, s := range g.sessions {
		for site := 0; site < 2; site++ {
			if s.got[site] > s.sent[site] {
				g.violate("session %d site %d: %d delivered > %d sent", s.idx, site, s.got[site], s.sent[site])
			}
		}
	}
	// Every datagram a shard ingests is forwarded at once, parked for an
	// unbound peer, rejected, or a header-only bind. forwarded also counts
	// parked datagrams drained later, and a parked datagram not drained was
	// evicted from its pending ring (every session binds both sites well
	// before it goes silent), so:
	//   in = forwarded - (parked - pending evictions) + parked + rejected + binds
	//      = forwarded + pending evictions + rejected + binds.
	in := m[relay.MetricDatagramsIn]
	rejected := 0.0
	for _, r := range []string{"runt", "site", "token", "spoof"} {
		rejected += m[relay.MetricRejected+"/"+r]
	}
	rhs := m[relay.MetricForwarded] + m[relay.MetricDropped+"/pending"] + rejected + m[relay.MetricBinds]
	if in != rhs {
		g.violate("relay counters do not conserve: in %.0f != forwarded %.0f + pending drops %.0f + rejected %.0f + binds %.0f",
			in, m[relay.MetricForwarded], m[relay.MetricDropped+"/pending"], rejected, m[relay.MetricBinds])
	}
	sent, bindSent, got := 0, 0, 0
	for k := range g.socks {
		sent += g.send[k].sentAll
		bindSent += g.send[k].bindSent
		got += g.recv[k].all
	}
	read := in + m[relay.MetricDropped+"/queue"] + m[relay.MetricRejected+"/front/runt"] + m[relay.MetricRejected+"/front/route"]
	if read > float64(sent+bindSent) {
		g.violate("relay read %.0f datagrams, generator sent %d", read, sent+bindSent)
	}
	if float64(got) > m[relay.MetricForwarded] {
		g.violate("generator received %d datagrams, relay forwarded %.0f", got, m[relay.MetricForwarded])
	}
}

// outcome folds the generator's raw samples into the run's numbers.
func (g *generator) outcome() relayOutcome {
	var o relayOutcome
	var lat, late []float64
	perSec := map[int64][]float64{}
	for k := range g.socks {
		r, s := g.recv[k], g.send[k]
		lat = append(lat, r.lat...)
		for i, v := range r.lat {
			sec := (r.sched[i] - g.w0) / int64(time.Second)
			perSec[sec] = append(perSec[sec], v)
		}
		late = append(late, s.late...)
		o.sentWin += s.sentWin
		o.deliveredWin += r.delivered
		o.sentAll += s.sentAll
		o.deliveredAll += r.all
	}
	o.latency = summarize(lat)
	o.lateness = summarize(late)
	var p99s, p50s []float64
	for _, v := range perSec {
		s := summarize(v)
		p99s = append(p99s, s.P99)
		p50s = append(p50s, s.P50)
	}
	o.latencyP99Med, o.latencyP50Med = median(p99s), median(p50s)
	o.admit = summarize(g.admits)
	o.admitsAll, o.admitFails = g.admitsAll, g.admitFails
	var sum float64
	var n int
	for i := range g.liveSum {
		sum += g.liveSum[i]
		n += g.liveN[i]
		if g.liveN[i] > 0 {
			o.livePerSec = append(o.livePerSec, g.liveSum[i]/float64(g.liveN[i]))
		}
	}
	if n > 0 {
		o.sessionsLive = sum / float64(n)
	}
	return o
}
