package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Quantiles are read from the benchmark's own sorted raw samples, never from
// obs.Histogram: its power-of-two buckets would turn a p99 into a bucket
// edge, and a change to those buckets must not move a benchmark number.

// quantile returns the nearest-rank p-quantile of sorted (ascending).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summary is a timing distribution as the benchmark reports it: median,
// p99, the sample count, and how many samples lie beyond the p99.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
	Beyond int     `json:"beyond_p99"`
	Max    float64 `json:"max"`
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50, out.P99, out.Max = quantile(s, 0.5), quantile(s, 0.99), s[len(s)-1]
	out.Beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > out.P99 })
	return out
}

func (s summary) String() string {
	return fmt.Sprintf("p50 %.4g p99 %.4g max %.4g (n=%d, %d beyond p99)", s.P50, s.P99, s.Max, s.N, s.Beyond)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux fixes
// it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user and system CPU time of a process, or of one of
// its threads when tid is given, from /proc.
func procCPU(pid int, tid ...int) (user, sys time.Duration, err error) {
	path := fmt.Sprintf("/proc/%d/stat", pid)
	if len(tid) > 0 {
		path = fmt.Sprintf("/proc/%d/task/%d/stat", pid, tid[0])
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short %s", path)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parse %s", path)
	}
	return time.Duration(u) * clockTick, time.Duration(s) * clockTick, nil
}

// peakRSSMiB returns a process's VmHWM in MiB (pid 0: this process).
func peakRSSMiB(pid int) (float64, error) { return statusMiB(pid, "VmHWM:") }

// rssMiB returns a process's current VmRSS in MiB.
func rssMiB(pid int) (float64, error) { return statusMiB(pid, "VmRSS:") }

func statusMiB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, path)
}

// stealSeconds is the host's cumulative steal time (CPU taken by other
// guests) from /proc/stat, 0 where it is not reported.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v * clockTick.Seconds()
}
