package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's CPU time so far, user plus system, summed over
// all its threads. On a kernel with paravirtual steal accounting, time the
// hypervisor gave to other guests is not in it, which is why every gated
// timing of the benchmark is a difference of two readings of it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid buffer cannot fail.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clock is one reading of the process CPU time and the wall clock.
type clock struct {
	cpu  time.Duration
	wall time.Time
}

func now() clock { return clock{cpuTime(), time.Now()} }

// since returns the CPU and wall time elapsed from c.
func (c clock) since() (cpu, wall time.Duration) {
	n := now()
	return n.cpu - c.cpu, n.wall.Sub(c.wall)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hostTimes is the machine-wide CPU time split of /proc/stat's first line,
// in clock ticks.
type hostTimes struct{ steal, total uint64 }

func readHostTimes() (hostTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTimes{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostTimes{}, fmt.Errorf("/proc/stat is empty")
	}
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTimes{}, fmt.Errorf("/proc/stat: unexpected first line %q", sc.Text())
	}
	var t hostTimes
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealMeter measures the share of the machine's CPU time the hypervisor
// stole over an interval. It explains noise; nothing is gated on it.
type stealMeter struct{ start hostTimes }

func startSteal() (stealMeter, error) {
	t, err := readHostTimes()
	return stealMeter{t}, err
}

func (m stealMeter) share() (float64, error) {
	t, err := readHostTimes()
	if err != nil {
		return 0, err
	}
	if t.total == m.start.total {
		return 0, nil
	}
	return float64(t.steal-m.start.steal) / float64(t.total-m.start.total), nil
}

// resetPeakRSS drops garbage and restarts the kernel's resident-set
// high-water mark, so peakRSSMB reports the peak from here on.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return (&rssSampler{}).begin()
}

// peakRSSMB reads VmHWM, the peak resident set since the last reset.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}

// rssSampler takes the peak resident set of each of many spans of a
// timed phase: the high-water mark is restarted as a span begins and read
// as it ends. Their median is the resident set a span of the phase
// typically peaks at; a whole phase's single peak instead follows the one
// collection that happened to run late.
type rssSampler struct{ peaks []float64 }

func (s *rssSampler) begin() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func (s *rssSampler) end() error {
	mb, err := peakRSSMB()
	s.peaks = append(s.peaks, mb)
	return err
}

// runtimeCounters reads the Go runtime's cumulative heap allocation and
// completed garbage-collection cycles.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// machine is the shape every result is stamped with. Results recorded on
// different core counts are not comparable: the engine's worker pool and
// the runtime's garbage-collector workers both follow the core count.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       uint64 `json:"seed"`
	// GOGC and GOMEMLIMIT are left as the environment has them; the
	// benchmark is meant to run with both unset.
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
}

func currentMachine(seed uint64) machine {
	env := func(k string) string {
		if v, ok := os.LookupEnv(k); ok {
			return v
		}
		return "unset"
	}
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		GOGC:       env("GOGC"),
		GOMEMLIMIT: env("GOMEMLIMIT"),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
