package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// The yardstick is a frozen EAM-shaped kernel owned by the benchmark.
// One pass is a density phase, an embedding phase and a force phase
// over a half pair list of a jittered bcc lattice, split over the
// workload's thread count with a join after each phase. It imports
// nothing of sdcmd, so no change to the program moves its cost; only
// the host does.
//
// Runs interleave yardstick passes with the workload's timed phase. The
// time-based end-to-end metrics are then reported at the yardstick's
// nominal speed: a raw time t becomes t · nominal / measured, where
// measured is the median pass of the run. A shared host that slows
// every core by the same factor (clock, sibling threads, memory
// bandwidth, steal) moves both and cancels; a change to the program
// moves only its own side. The raw values are printed too.
//
// The kernel and its constants must not change once parents have been
// measured with them: a later change would move every adjusted metric.
const (
	ysCutoff  = 4.2 // Å, pair interaction range
	ysReach   = 4.7 // Å, list range (cutoff + 0.5 Å skin)
	ysLattice = 2.8665
	ysJitter  = 0.05 // Å
	ysSeed    = 19731106
)

// yardstick holds the fixed state of one kernel instance.
type yardstick struct {
	threads int
	edge    float64
	x, y, z []float64
	pi, pj  []int32
	rho     [][]float64 // per-thread partial densities
	fp      []float64   // embedding derivative per atom
	fx      [][]float64 // per-thread partial forces
	fy, fz  [][]float64
	sum     []float64 // per-thread checksum of the last pass
}

// newYardstick builds the kernel state for 2·cells³ atoms over the
// given thread count; it depends on nothing but its arguments.
func newYardstick(cells, threads int) (*yardstick, error) {
	if cells < 5 || threads < 1 {
		return nil, fmt.Errorf("yardstick: need cells ≥ 5 and threads ≥ 1, have %d, %d", cells, threads)
	}
	n := 2 * cells * cells * cells
	y := &yardstick{threads: threads, edge: float64(cells) * ysLattice,
		x: make([]float64, 0, n), y: make([]float64, 0, n), z: make([]float64, 0, n)}
	rng := rand.New(rand.NewSource(ysSeed))
	for i := 0; i < cells; i++ {
		for j := 0; j < cells; j++ {
			for k := 0; k < cells; k++ {
				for _, b := range [2]float64{0, 0.5} {
					y.x = append(y.x, (float64(i)+b)*ysLattice+ysJitter*(2*rng.Float64()-1))
					y.y = append(y.y, (float64(j)+b)*ysLattice+ysJitter*(2*rng.Float64()-1))
					y.z = append(y.z, (float64(k)+b)*ysLattice+ysJitter*(2*rng.Float64()-1))
				}
			}
		}
	}
	y.buildPairs()
	y.rho = make([][]float64, threads)
	y.fx, y.fy, y.fz = make([][]float64, threads), make([][]float64, threads), make([][]float64, threads)
	for t := 0; t < threads; t++ {
		y.rho[t] = make([]float64, n)
		y.fx[t], y.fy[t], y.fz[t] = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	y.fp = make([]float64, n)
	y.sum = make([]float64, threads)
	y.pass() // touches every array once, so no timed pass pays for first use
	return y, nil
}

// minImage maps a coordinate difference into [−edge/2, edge/2].
func (y *yardstick) minImage(d float64) float64 {
	return d - y.edge*math.Round(d/y.edge)
}

// buildPairs lists every pair i < j within ysReach by direct search
// over the lattice neighbourhood: each atom against the atoms of the
// surrounding 5³ conventional cells (2·ysLattice > ysReach).
func (y *yardstick) buildPairs() {
	n := len(y.x)
	cells := int(math.Round(y.edge / ysLattice))
	r2 := ysReach * ysReach
	for i := 0; i < n; i++ {
		ci := i / 2
		a, b, c := ci/(cells*cells), (ci/cells)%cells, ci%cells
		for da := -2; da <= 2; da++ {
			for db := -2; db <= 2; db++ {
				for dc := -2; dc <= 2; dc++ {
					cj := ((a+da+cells)%cells*cells+(b+db+cells)%cells)*cells + (c+dc+cells)%cells
					for j := 2 * cj; j < 2*cj+2; j++ {
						if j <= i {
							continue
						}
						dx, dy, dz := y.minImage(y.x[j]-y.x[i]), y.minImage(y.y[j]-y.y[i]), y.minImage(y.z[j]-y.z[i])
						if dx*dx+dy*dy+dz*dz < r2 {
							y.pi = append(y.pi, int32(i))
							y.pj = append(y.pj, int32(j))
						}
					}
				}
			}
		}
	}
}

// pairs is the number of pair visits per pass (two phases visit each).
func (y *yardstick) pairs() int { return 2 * len(y.pi) }

// parallel runs body(t, lo, hi) on every thread over its static share
// of n items and waits for all.
func (y *yardstick) parallel(n int, body func(t, lo, hi int)) {
	if y.threads == 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for t := 0; t < y.threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(t, t*n/y.threads, (t+1)*n/y.threads)
		}()
	}
	wg.Wait()
}

// pass is one density, embedding and force evaluation.
func (y *yardstick) pass() {
	const c2 = ysCutoff * ysCutoff
	n := len(y.x)
	y.parallel(len(y.pi), func(t, lo, hi int) {
		rho := y.rho[t]
		clear(rho)
		for k := lo; k < hi; k++ {
			i, j := y.pi[k], y.pj[k]
			dx, dy, dz := y.minImage(y.x[j]-y.x[i]), y.minImage(y.y[j]-y.y[i]), y.minImage(y.z[j]-y.z[i])
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= c2 {
				continue
			}
			d := ysCutoff - math.Sqrt(r2)
			phi := d * d * (0.3 + 0.1*d)
			rho[i] += phi
			rho[j] += phi
		}
	})
	y.parallel(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for t := range y.rho {
				s += y.rho[t][i]
			}
			y.fp[i] = -0.5 / math.Sqrt(s+1e-12)
		}
	})
	y.parallel(len(y.pi), func(t, lo, hi int) {
		fx, fy, fz := y.fx[t], y.fy[t], y.fz[t]
		clear(fx)
		clear(fy)
		clear(fz)
		for k := lo; k < hi; k++ {
			i, j := y.pi[k], y.pj[k]
			dx, dy, dz := y.minImage(y.x[j]-y.x[i]), y.minImage(y.y[j]-y.y[i]), y.minImage(y.z[j]-y.z[i])
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= c2 {
				continue
			}
			r := math.Sqrt(r2)
			d := ysCutoff - r
			dphi := -d * (0.6 + 0.3*d)
			dpair := -2 * d * (0.5 + 0.05*d*d)
			g := ((y.fp[i]+y.fp[j])*dphi + dpair) / r
			fx[i] += g * dx
			fy[i] += g * dy
			fz[i] += g * dz
			fx[j] -= g * dx
			fy[j] -= g * dy
			fz[j] -= g * dz
		}
	})
	y.parallel(n, func(t, lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			var ax, ay, az float64
			for u := range y.fx {
				ax += y.fx[u][i]
				ay += y.fy[u][i]
				az += y.fz[u][i]
			}
			s += ax*ax + ay*ay + az*az
		}
		y.sum[t] = s
	})
}

// timedPass runs one pass and returns its wall time and the checksum
// Σ|f|² (the same on every pass).
func (y *yardstick) timedPass() (time.Duration, float64) {
	t0 := time.Now()
	y.pass()
	return time.Since(t0), sum(y.sum)
}

// gauge collects the yardstick passes of a run.
type gauge struct {
	Pairs   int       `json:"pairs"`
	WallsNS []float64 `json:"walls_ns"` // per pass
	// ProcCPUNS is the thread CPU time of each pass, by the processor it
	// was pinned to (serve-mix's generator only).
	ProcCPUNS [][]float64 `json:"proc_cpu_ns,omitempty"`
	Checksum  float64     `json:"checksum"`
	Mismatch  int         `json:"mismatch"` // passes whose checksum differed from the first
}

func (g *gauge) add(wall time.Duration, checksum float64) {
	g.WallsNS = append(g.WallsNS, float64(wall))
	if len(g.WallsNS) == 1 {
		g.Checksum = checksum
	} else if checksum != g.Checksum {
		g.Mismatch++
	}
}

// measure runs one pass of ys.
func (g *gauge) measure(ys *yardstick) {
	g.Pairs = ys.pairs()
	g.add(ys.timedPass())
}

// nsPerPair is the median pass's wall time per pair visit.
func (g *gauge) nsPerPair() float64 { return median(g.WallsNS) / float64(g.Pairs) }

// procCPUNSPerPair is the mean over processors of each processor's
// median pass in thread CPU time, per pair visit: the speed of the
// average processor.
func (g *gauge) procCPUNSPerPair() float64 {
	var ms []float64
	for _, cs := range g.ProcCPUNS {
		if len(cs) > 0 {
			ms = append(ms, median(cs))
		}
	}
	return sum(ms) / float64(len(ms)) / float64(g.Pairs)
}

// checkGauge fails the run if any yardstick pass computed another
// result than the first: the instrument itself must be deterministic.
func checkGauge(out *outcome, g *gauge) {
	out.check("yardstick_repeatable", g.Mismatch == 0 && len(g.WallsNS) > 0,
		"%d of %d passes differ from the first", g.Mismatch, len(g.WallsNS))
}

// timeUnits are the units of the time-based end-to-end metrics.
var timeUnits = map[string]string{
	"setup_s": "s", "atom_steps_per_s": "1/s", "cpu_ms_per_job": "ms",
	"job_latency_ms_p50": "ms", "job_latency_ms_tail": "ms", "hit_latency_ms_p50": "ms",
}

// report sets each time-based metric from its raw value at nominal
// host speed, where speed is nominal / measured yardstick time per pair
// visit (1 on the quiet host the nominal values come from, below 1 on a
// slower one): times, CPU time among them, are multiplied by it, rates
// divided by it. Set-up, just before the timed phase, takes the timed
// phase's speed. The raw values are stated in the notes.
func report(out *outcome, speed float64, raw map[string]float64) {
	for name, v := range raw {
		unit := timeUnits[name]
		adj := v * speed
		if name == "atom_steps_per_s" {
			adj = v / speed
		}
		out.set(name, adj, unit)
		out.note("raw "+name, fmt.Sprintf("%.6g %s", v, unit))
	}
}
