package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runHeader records where and how a run was made; every run prints it
// and every trace file carries it.
type runHeader struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"` // the iteration-scale constant: seconds / defaultSeconds
	Trace      bool    `json:"trace"`
	Smoke      bool    `json:"smoke"`
	Commit     string  `json:"commit"` // cache.Fingerprint: the stamped VCS revision, "unversioned" outside a git checkout
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
}

// ownTime is how long something took: the wall the clock read and what
// the kernel says the guest's CPUs did meanwhile.
type ownTime struct {
	wall  float64 // seconds on the clock
	busy  float64 // CPU-seconds the CPUs were not idle, stolen time included
	steal float64 // CPU-seconds a CPU had work but the hypervisor ran something else
}

// own is the wall with the stolen time taken out: what the work takes
// when the host gives this machine its CPUs. While a CPU is stolen the
// work that would have run on it waits, so a stretch that keeps p CPUs
// busy loses 1/p seconds of wall to every stolen CPU-second: one CPU
// serial, half in a two-way parallel stretch, and steal/p over a mix of
// the two, p being the average number of busy CPUs (stolen time counts
// as busy: the CPU had work). /proc/stat is the whole machine's, which
// a benchmark run has to itself. README, "Timing noise", has the
// measurements this rests on.
func (t ownTime) own() float64 {
	if t.wall <= 0 {
		return 0
	}
	p := t.busy / t.wall
	if p < 1 {
		p = 1
	}
	if own := t.wall - t.steal/p; own > 0 {
		return own
	}
	return t.wall
}

func (t ownTime) plus(u ownTime) ownTime {
	return ownTime{t.wall + u.wall, t.busy + u.busy, t.steal + u.steal}
}

func (t ownTime) String() string {
	return fmt.Sprintf("wall %.4f s, %.2f CPU-s stolen of %.2f busy, own %.4f s", t.wall, t.steal, t.busy, t.own())
}

// stopwatch times a stretch of work on the clock and in /proc/stat.
type stopwatch struct {
	t0          time.Time
	busy, steal float64
}

func startStopwatch() stopwatch {
	busy, steal := cpuSeconds()
	return stopwatch{t0: time.Now(), busy: busy, steal: steal}
}

func (sw stopwatch) stop() ownTime {
	wall := time.Since(sw.t0).Seconds()
	busy, steal := cpuSeconds()
	return ownTime{wall: wall, busy: busy - sw.busy, steal: steal - sw.steal}
}

// cpuSeconds reads the machine's busy and stolen CPU time since boot, in
// seconds, from the first line of /proc/stat (user, nice, system, idle,
// iowait, irq, softirq, steal, in hundredths of a second); zeros where
// there is no /proc, which makes every own wall the wall.
func cpuSeconds() (busy, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	var ticks [8]float64
	for i := range ticks {
		if ticks[i], err = strconv.ParseFloat(fields[i+1], 64); err != nil {
			return 0, 0
		}
	}
	const userHZ = 100
	steal = ticks[7] / userHZ
	busy = (ticks[0]+ticks[1]+ticks[2]+ticks[5]+ticks[6])/userHZ + steal
	return busy, steal
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB; 0 where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// touchHeap makes the process touch mb megabytes of fresh heap and
// release them to the Go allocator again. On this kind of VM the first
// touch of a guest page costs far more than later ones (the n=5 anchor
// swung between 25 s and 41 s on it, system time between 9 s and 27 s),
// so each workload touches its expected peak once, untimed, before the
// timed passes. GC settings are left alone.
func touchHeap(mb int) {
	func() {
		const chunk = 64 << 20
		var held [][]byte
		for left := mb << 20; left > 0; left -= chunk {
			b := make([]byte, chunk)
			for i := 0; i < len(b); i += 4096 {
				b[i] = 1
			}
			held = append(held, b)
		}
		runtime.KeepAlive(held)
	}()
	runtime.GC()
}
