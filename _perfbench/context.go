package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"sdcmd/internal/force"
	"sdcmd/internal/lattice"
	"sdcmd/internal/md"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

// runContext describes the host a run measured on, so that a slower
// host can be told apart from a slower commit.
type runContext struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run (/proc/stat steal): a shared
	// host, not the program, when it is high.
	StealFrac float64 `json:"steal_frac"`
	CalibNS   float64 `json:"calib_serial_force_ns_per_pair"`

	steal0, total0 uint64
}

func newRunContext() runContext {
	rc := runContext{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LoadStart:  loadAvg(),
	}
	rc.steal0, rc.total0 = cpuTicks()
	return rc
}

// finish records the state of the host at the end of the run.
func (rc *runContext) finish() {
	rc.LoadEnd = loadAvg()
	if steal, total := cpuTicks(); total > rc.total0 {
		rc.StealFrac = float64(steal-rc.steal0) / float64(total-rc.total0)
	}
}

// cpuTicks reads the steal and total ticks of all CPUs from /proc/stat
// (zero when unavailable).
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling thread's CPU time so far
// (CLOCK_THREAD_CPUTIME_ID); the caller locks its goroutine to the
// thread.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// pinThread restricts the calling thread to processor p
// (sched_setaffinity); the caller locks its goroutine to the thread.
func pinThread(p int) error {
	var mask [16]uint64 // 1 024 processors
	if p < 0 || p >= 64*len(mask) {
		return fmt.Errorf("processor %d out of range", p)
	}
	mask[p/64] = 1 << (p % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return e
	}
	return nil
}

// liveHeapMB is the heap still reachable after a forced collection:
// what the workload retains, not its peak.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// Calibration state: fixed, independent of the run seed, so its cost
// compares across runs and commits.
const (
	calibCells  = 20 // 2·20³ = 16 000 atoms
	calibSeed   = 20090922
	calibJitter = 0.05 // Å, breaks the perfect-lattice degeneracy
	calibReps   = 3
)

// calibrate times one serial Engine.Compute on the fixed 16 000-atom
// state (median of calibReps after one warm-up) and returns ns per pair.
func calibrate() (float64, error) {
	cfg, err := lattice.Build(lattice.BCC, calibCells, calibCells, calibCells, lattice.FeLatticeConstant)
	if err != nil {
		return 0, err
	}
	cfg.Jitter(calibJitter, calibSeed)
	sys := md.FromLattice(cfg)
	pot := potential.DefaultFe()
	list, err := neighbor.Builder{Cutoff: pot.Cutoff(), Skin: 0.5, Half: true}.Build(sys.Box, sys.Pos)
	if err != nil {
		return 0, err
	}
	t, err := timeSerialCompute(pot, sys, list, calibReps)
	if err != nil {
		return 0, err
	}
	return float64(t) / float64(list.Pairs()), nil
}

// timeSerialCompute returns the median of reps serial Engine.Compute
// calls on sys (after one untimed warm-up).
func timeSerialCompute(pot potential.EAM, sys *md.System, list *neighbor.List, reps int) (time.Duration, error) {
	red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
	if err != nil {
		return 0, err
	}
	eng, err := force.NewEngine(pot, sys.Box)
	if err != nil {
		return 0, err
	}
	f := make([]vec.Vec3, sys.N())
	var ts []float64
	for i := 0; i <= reps; i++ {
		t0 := time.Now()
		if _, err := eng.Compute(red, sys.Pos, f); err != nil {
			return 0, fmt.Errorf("serial compute: %w", err)
		}
		if i > 0 {
			ts = append(ts, float64(time.Since(t0)))
		}
	}
	return time.Duration(median(ts)), nil
}
