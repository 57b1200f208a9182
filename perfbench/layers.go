package main

import (
	"fmt"
	"sort"

	"retrolock/internal/lobby"
	"retrolock/internal/relay"
)

// layerMetrics is the traced run's report: per-layer values with units.
type layerMetrics struct {
	values map[string]float64
	units  map[string]string
}

func (l *layerMetrics) set(name, unit string, v float64) {
	l.values[name] = v
	l.units[name] = unit
}

// lockstepWork are the span names whose self time is work done by a layer.
// vclock.sleep spans are waits (other actors run meanwhile) and are not.
var lockstepWork = []string{"vm.step", "vm.state_hash", "flight.record", "core.sync", "transport.send", "transport.recv"}

// perLayer derives the per-layer metrics from the traced sweep (lt), the
// traced relay host (host), the untraced relayd run (r, whose /metrics
// supplies the counts); ue and te are the untraced and traced end-to-end
// metrics.
func perLayer(lt *lockTrace, host *relayHostReport, r relayOutcome, ue, te map[string]float64) layerMetrics {
	l := layerMetrics{values: map[string]float64{}, units: map[string]string{}}
	perCall := func(name string) float64 {
		a := lt.Spans[name]
		if a == nil || a.Count == 0 {
			return 0
		}
		return float64(a.Self) / float64(a.Count)
	}
	frames := float64(lt.SiteFrames)

	// Lockstep: the sync side, per site-frame or per call.
	l.set("vm.step_ns", "ns", perCall("vm.step"))
	l.set("vm.state_hash_ns", "ns", perCall("vm.state_hash"))
	l.set("flight.record_ns", "ns", perCall("flight.record"))
	l.set("core.sync_self_ns", "ns", perCall("core.sync"))
	l.set("core.sync_wait_ms", "ms", float64(lt.SyncWaitNs)/frames/1e6)
	l.set("transport.send_ns", "ns", perCall("transport.send"))
	l.set("transport.recv_ns", "ns", perCall("transport.recv"))
	l.set("transport.empty_recv_ratio", "ratio", float64(lt.EmptyRecvs)/float64(lt.Recvs))
	l.set("transport.datagrams_per_frame", "datagrams/frame", float64(lt.Sends)/frames)
	l.set("vclock.sleeps_per_frame", "sleeps/frame", float64(lt.Sleeps)/frames)
	var work float64
	for _, n := range lockstepWork {
		if a := lt.Spans[n]; a != nil {
			work += float64(a.Self)
		}
	}
	cpuNs := lt.CPUS * 1e9
	l.set("lockstep.residual_ns_per_frame", "ns", (cpuNs-work)/frames)
	l.set("lockstep.accounted_share", "ratio", work/cpuNs)

	// Relay data path, from the traced host's window.
	l.set("relay.front_recv_ns", "ns", float64(host.RecvCPUNs)/float64(host.RecvItems))
	l.set("relay.recv_batch", "datagrams/call", float64(host.RecvItems)/float64(host.RecvCalls))
	l.set("relay.route_ns", "ns", float64(host.RouteCPUNs)/float64(max(host.RouteItems, 1)))
	l.set("relay.front_send_ns", "ns", float64(host.SendCPUNs)/float64(host.SendItems))
	l.set("relay.send_batch", "datagrams/call", float64(host.SendItems)/float64(host.SendCalls))
	l.set("relay.step_ns", "ns", float64(host.StepSumNs)/float64(host.StepCount))
	l.set("relay.step_self_ns", "ns", float64(host.StepSumNs-host.SendWallNs)/float64(host.StepCount))
	l.set("relay.residence_p50_us", "us", host.Residence.P50)
	l.set("relay.residence_p99_us", "us", host.Residence.P99)
	fleet, hist := median(host.FleetTickNs), median(host.HistSampleNs)
	l.set("relay.fleet_tick_ns", "ns", fleet)
	l.set("history.sample_ns", "ns", hist)
	// Relay CPU split by thread: the reader's locked thread (Recv plus
	// Route), the shard loops' locked threads (Step, Send included), and the
	// fleet ticks and history samples; the residue is the Go runtime
	// (scheduler, timers, GC), the lobby, the HTTP scrapes and the tick loop.
	dg := float64(host.RecvItems)
	l.set("relay.shard_cpu_ns", "ns", float64(host.ShardCPUNs)/dg)
	l.set("relay.reader_cpu_ns", "ns", float64(host.ReaderCPUNs)/dg)
	relayWork := float64(host.ReaderCPUNs+host.ShardCPUNs) +
		fleet*float64(len(host.FleetTickNs)) + hist*float64(len(host.HistSampleNs))
	relayCPU := host.CPUS * 1e9
	l.set("relay.residual_ns_per_datagram", "ns", (relayCPU-relayWork)/dg)
	l.set("relay.accounted_share", "ratio", relayWork/relayCPU)

	// Counts from the untraced relayd's /metrics.
	c := r.counters
	l.set("relay.queue_peak", "datagrams", c[relay.MetricQueuePeak])
	l.set("relay.queue_drops", "datagrams", c[relay.MetricDropped+"/queue"])
	l.set("relay.pending_parked", "datagrams", c[relay.MetricPendingQueued])
	l.set("relay.pending_drops", "datagrams", c[relay.MetricDropped+"/pending"])
	l.set("relay.rejected", "datagrams", rejectedTotal(c))

	// Relay latency tail and admission latency, from the untraced run: too
	// noisy from run to run on a shared two-CPU host to gate with a bound
	// of at most 25% (see NOTES.md), so they are reported here.
	l.set("relay.latency_p99_ms", "ms", r.latencyP99Med)
	l.set("lobby.admit_p50_ms", "ms", r.admit.P50)
	l.set("lobby.admit_p99_ms", "ms", r.admit.P99)
	l.set("lobby.join_retries", "joins/admission", joinRetries(r))

	// relayd process CPU (untraced).
	l.set("relayd.cpu_ns_per_datagram", "ns", float64(r.cpu)/float64(r.sentWin))
	l.set("relayd.sys_share", "ratio", 1-float64(r.cpuUser)/float64(r.cpu))

	// Tracing overhead: the traced run's change in each end-to-end metric,
	// relative to the untraced run. On the relay side part of it is the
	// traced host being a different process build than relayd.
	names := make([]string, 0, len(ue))
	for k := range ue {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		l.set("trace_overhead."+k, "ratio", (te[k]-ue[k])/ue[k])
	}
	fmt.Printf("per-layer: lockstep accounted %.1f%% of %.3f s CPU (wall %.3f s); relay accounted %.1f%% of %.3f s CPU\n",
		100*work/cpuNs, lt.CPUS, lt.WallS, 100*relayWork/relayCPU, host.CPUS)
	return l
}

// joinRetries is the re-announces per admission the measured relayd's lobby
// saw: every JOIN beyond the two an admission needs.
func joinRetries(r relayOutcome) float64 {
	if r.instanceAdmits == 0 {
		return 0
	}
	return (r.counters[lobby.MetricJoins] - 2*float64(r.instanceAdmits)) / float64(r.instanceAdmits)
}
