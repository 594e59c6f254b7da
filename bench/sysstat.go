package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM) in
// MB, falling back to getrusage's maxrss where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// associations is how many MCAM associations a workload opens, each driven
// by one goroutine, and also the workload process's GOMAXPROCS: as many
// closed-loop clients as Ps, so that no P idles and none is shared. With
// one client on two Ps the loop spends its time waking parked Ps; that, or
// streams beside a closed loop, cost the prototype 8-15% run to run. The
// CPU count is clamped to 2..4, so a bigger host gives the numbers of a
// four-CPU one.
var associations = min(max(runtime.NumCPU(), 2), 4)

// memDelta is the change of the runtime's allocation and GC counters over
// a phase.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func readMem() (m runtime.MemStats) {
	runtime.ReadMemStats(&m)
	return m
}

func memSince(a, b runtime.MemStats) memDelta {
	return memDelta{
		mallocs:  b.Mallocs - a.Mallocs,
		bytes:    b.TotalAlloc - a.TotalAlloc,
		gcCycles: b.NumGC - a.NumGC,
		gcPause:  time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// hostSteal reads how much CPU time the host has withheld from the guest:
// the steal column of /proc/stat's first line, summed over all CPUs, which
// counts the time a vCPU was ready to run and the host ran something else.
// It is the one thing a guest can see of its neighbours, and what the
// harness tells disturbed rounds from undisturbed ones by. The file is
// opened once and read with pread into a fixed buffer, so that a reading in
// a measured phase allocates nothing.
type hostSteal struct {
	fd  int
	buf [256]byte
}

// stealTick is the unit /proc/stat counts in (USER_HZ, 100 on every Linux).
const stealTick = 10 * time.Millisecond

func openHostSteal() *hostSteal {
	fd, err := syscall.Open("/proc/stat", syscall.O_RDONLY, 0)
	if err != nil {
		return &hostSteal{fd: -1}
	}
	return &hostSteal{fd: fd}
}

func (h *hostSteal) close() {
	if h != nil && h.fd >= 0 {
		syscall.Close(h.fd)
	}
}

// read returns the steal time so far, or 0 where /proc/stat does not say.
func (h *hostSteal) read() time.Duration {
	if h == nil || h.fd < 0 {
		return 0
	}
	n, err := syscall.Pread(h.fd, h.buf[:], 0)
	if err != nil {
		return 0
	}
	return time.Duration(parseSteal(h.buf[:n])) * stealTick
}

// parseSteal returns the eighth number of /proc/stat's "cpu" line: user,
// nice, system, idle, iowait, irq, softirq, steal.
func parseSteal(line []byte) (ticks int64) {
	field := 0
	for i := 0; i < len(line) && line[i] != '\n'; {
		if line[i] < '0' || line[i] > '9' {
			i++
			continue
		}
		var v int64
		for ; i < len(line) && line[i] >= '0' && line[i] <= '9'; i++ {
			v = v*10 + int64(line[i]-'0')
		}
		if field++; field == 8 {
			return v
		}
	}
	return 0
}

// maxStolen is the share of a round's CPU capacity the host may withhold
// before the round counts as disturbed. On a quiet host the guest loses 0.1
// to 0.4%; when its neighbours are busy, 3 to 5%, and every latency in the
// guest reads the host's scheduler.
const maxStolen = 0.01

// undisturbed marks the rounds of a phase the run reports on: those in which
// the host stole no more than maxStolen of the guest's CPU time, and, when
// they are fewer than minUndisturbed of all rounds, the least disturbed
// rounds up to that share. steal holds a reading per round boundary, one more
// than there are rounds.
func undisturbed(steal []time.Duration, round time.Duration) []bool {
	n := len(steal) - 1
	limit := time.Duration(maxStolen * float64(round) * float64(runtime.NumCPU()))
	stolen := make([]time.Duration, n)
	order := make([]int, n)
	for r := range stolen {
		stolen[r] = steal[r+1] - steal[r]
		order[r] = r
	}
	sort.SliceStable(order, func(i, j int) bool { return stolen[order[i]] < stolen[order[j]] })
	least := int(math.Ceil(minUndisturbed * float64(n)))
	ok := make([]bool, n)
	for k, r := range order {
		ok[r] = stolen[r] <= limit || k < least
	}
	return ok
}

// minUndisturbed is the least share of a phase's rounds a run reports on.
const minUndisturbed = 0.1

// medianRound reduces a metric's per-round values to the run's figure: the
// median of the rounds undisturbed marked.
func medianRound(vs []float64, ok []bool) float64 {
	kept := make([]float64, 0, len(vs))
	for r, v := range vs {
		if ok[r] {
			kept = append(kept, v)
		}
	}
	return median(kept)
}
