package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"sdcmd/internal/core"
	"sdcmd/internal/force"
	"sdcmd/internal/lattice"
	"sdcmd/internal/md"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/reorder"
	"sdcmd/internal/strategy"
	"sdcmd/internal/telemetry"
	"sdcmd/internal/vec"
)

// mdSpec is one MD workload: bcc Fe, NVE, default Finnis–Sinclair EAM,
// default 0.5 Å skin and 1 fs timestep, BlockReorder on.
type mdSpec struct {
	cells   int // bcc cells per side: 2·cells³ atoms
	temp    float64
	kind    strategy.Kind
	threads int
	// horizon is the step count over which the traced run counts
	// md.rebuilds, so the count is exact for a seed whatever the host
	// speed.
	horizon int
	// reference also checks the final forces against the O(N²)
	// force.Reference oracle.
	reference bool
	// driftBound is the largest accepted |E_end − E_start| per atom in
	// eV over the timed phase.
	driftBound float64
	// gaugeEvery is how many steps run between two yardstick passes
	// (see runMD).
	gaugeEvery int
}

// The md workloads share one yardstick, the size of md-paper on two
// threads: a pass takes ~22 ms. A smaller one, the size of md-rebuild,
// spread three times as much as md-rebuild's own steps between runs;
// this one tracked them within ~1 %. mdNominal is its wall ns per pair
// visit (median pass) on a quiet 2-vCPU host: the speed the time-based
// metrics are reported at. CPU time per step goes by the same wall
// speed: the yardstick's own process CPU time includes the runtime's
// spinning at its joins, and step CPU time adjusted by it spread up to
// three times as much between runs (7.7 % against 2.2 % on md-paper).
const (
	mdYardstickCells   = 30
	mdYardstickThreads = 2
)

const mdNominal = 14.4

var (
	// mdPaper is the paper's Small case and method: 54 000 atoms, SDC
	// with Dim 2 over 2 threads.
	mdPaper = mdSpec{cells: 30, temp: 300, kind: strategy.SDC,
		threads: 2, horizon: 60, driftBound: 2e-4, gaugeEvery: 4}
	// mdRebuild melts a 3 456-atom crystal from 3000 K so the neighbor
	// list rebuilds every dozen steps, under the Tasked strategy.
	mdRebuild = mdSpec{cells: 12, temp: 3000, kind: strategy.Tasked,
		threads: 2, horizon: 300, reference: true, driftBound: 2e-3, gaugeEvery: 16}
)

const (
	setupReps = 3
	// forceTol is the accepted max |Δf| / max |f| between the
	// workload's reducer and a serial (or O(N²)) evaluation on the same
	// positions: summation order differs, the arithmetic does not.
	forceTol = 1e-9
	// overrun caps how far past --seconds the timed phase may run while
	// it waits for a rebuild step to close the last list cycle.
	overrun = 60 * time.Second
	// maxSnaps bounds the rebuild-time position snapshots the traced
	// run replays through the neighbor, core and reorder probes.
	maxSnaps = 8
	// twinChunk is how many steps the traced simulator and its untraced
	// twin take in turn, so host drift hits both equally.
	twinChunk = 8
)

func (sp mdSpec) atoms() int { return 2 * sp.cells * sp.cells * sp.cells }

func (sp mdSpec) newSim(seed int64, rec *telemetry.Recorder) (*md.Simulator, error) {
	lat, err := lattice.Build(lattice.BCC, sp.cells, sp.cells, sp.cells, lattice.FeLatticeConstant)
	if err != nil {
		return nil, err
	}
	sys := md.FromLattice(lat)
	if err := sys.InitVelocities(sp.temp, seed); err != nil {
		return nil, err
	}
	cfg := md.DefaultConfig()
	cfg.Strategy = sp.kind
	cfg.Threads = sp.threads
	cfg.Dim = core.Dim2
	cfg.BlockReorder = true
	cfg.Telemetry = rec
	return md.NewSimulator(sys, cfg)
}

// stepTimes are the wall times of single StepCtx(1) calls, split by
// whether the call rebuilt the neighbor list.
type stepTimes struct {
	normal, rebuild []time.Duration
}

func (s *stepTimes) add(d time.Duration, rebuilt bool) {
	if rebuilt {
		s.rebuild = append(s.rebuild, d)
	} else {
		s.normal = append(s.normal, d)
	}
}

func (s *stepTimes) steps() int { return len(s.normal) + len(s.rebuild) }

// medianWall is the stepping wall time with every step counted at the
// median of its mode: the rebuild share is kept, while the long tail of
// normal steps a shared host adds (a worker thread descheduled mid-step
// stalls the other at the next barrier; 10–25 % of the wall on a 2-vCPU
// host, varying from run to run) is not.
func (s *stepTimes) medianWall() time.Duration {
	w := float64(len(s.normal)) * median(durationsMS(s.normal))
	if len(s.rebuild) > 0 {
		w += float64(len(s.rebuild)) * median(durationsMS(s.rebuild))
	}
	return time.Duration(w * float64(time.Millisecond))
}

// step advances sim by one step and reports its wall time and whether
// it rebuilt the neighbor list.
func step(sim *md.Simulator) (time.Duration, bool, error) {
	before := sim.Rebuilds()
	t0 := time.Now()
	err := sim.StepCtx(context.Background(), 1)
	d := time.Since(t0)
	return d, sim.Rebuilds() != before, err
}

// windowDone is the stopping rule of the timed phase: at least
// `seconds` have passed and the last step rebuilt the list, so the
// phase covers whole list cycles (a build plus the steps that reuse
// it) and the rebuild share does not depend on where the clock ran
// out. A phase that sees no rebuild stops after the overrun.
func windowDone(elapsed time.Duration, seconds float64, rebuilt bool) bool {
	limit := time.Duration(seconds * float64(time.Second))
	return (elapsed >= limit && rebuilt) || elapsed >= limit+overrun
}

func runMD(sp mdSpec, o options, tr *Tracer) (*outcome, error) {
	if o.trace {
		return runMDTraced(sp, o, tr)
	}
	out := &outcome{}
	ys, err := newYardstick(mdYardstickCells, mdYardstickThreads)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var sim *md.Simulator
	for r := 0; r < setupReps; r++ {
		if sim != nil {
			sim.Close()
		}
		t0 := time.Now()
		s, err := sp.newSim(o.seed, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sim = s
	}
	defer sim.Close()
	e0 := sim.TotalEnergy()

	// Every gaugeEvery-th step is followed by a yardstick pass, so the
	// two see the same host from moment to moment; only the steps count
	// towards the program's CPU time. A pass evicts the steps' working
	// set from cache, so it comes after a few steps rather than each:
	// most steps start warm, and the step medians are those of warm
	// steps. The yardstick takes ~5 % of md-paper's timed phase (a pass
	// per 4 steps of ~100 ms) and ~17 % of md-rebuild's (per 16 of ~7 ms).
	var st stepTimes
	g := &gauge{}
	var cpu time.Duration
	t0 := time.Now()
	for {
		c0 := cpuTime()
		d, rebuilt, err := step(sim)
		if err != nil {
			return nil, err
		}
		cpu += cpuTime() - c0
		st.add(d, rebuilt)
		if windowDone(time.Since(t0), o.seconds, rebuilt) {
			break
		}
		if st.steps()%sp.gaugeEvery == 0 {
			g.measure(ys)
		}
	}
	if len(g.WallsNS) == 0 { // a window shorter than sp.gaugeEvery steps
		g.measure(ys)
	}
	wall := time.Since(t0)
	n := st.steps()

	checkMD(out, sp, sim, e0)
	checkGauge(out, g)
	out.attempted = n
	speed := mdNominal / g.nsPerPair()
	out.note("yardstick", fmt.Sprintf("%d passes of %d pairs: %.2f ns/pair (median pass); nominal %.2f; host speed %.3f",
		len(g.WallsNS), g.Pairs, g.nsPerPair(), mdNominal, speed))
	reb := durationsMS(st.rebuild)
	tl := tailOf(reb)
	raw := map[string]float64{
		"setup_s":             median(setups),
		"atom_steps_per_s":    float64(sp.atoms()) * float64(n) / st.medianWall().Seconds(),
		"cpu_ms_per_job":      ms(cpu) / float64(n),
		"job_latency_ms_p50":  median(reb),
		"job_latency_ms_tail": tl.Value,
		"hit_latency_ms_p50":  median(durationsMS(st.normal)),
	}
	report(out, speed, raw)
	out.note("job_latency_ms_tail", fmt.Sprintf("%s of %d rebuild steps", tl.Label, tl.N))
	out.note("steps", fmt.Sprintf("%d steps (%d rebuild) in %.3f s wall with %d yardstick passes, %.3f s of steps at the mode medians",
		n, len(st.rebuild), wall.Seconds(), len(g.WallsNS), st.medianWall().Seconds()))
	out.set("live_heap_mb", liveHeapMB(), "MB")
	return out, nil
}

// checkMD is the md correctness gate: NVE energy drift per atom, the
// workload reducer's forces against a serial evaluation on the same
// positions, and on the small case against the O(N²) oracle.
func checkMD(out *outcome, sp mdSpec, sim *md.Simulator, e0 float64) {
	n := float64(sim.Sys.N())
	drift := math.Abs(sim.TotalEnergy()-e0) / n
	out.check("nve_drift", drift <= sp.driftBound, "|ΔE|/N = %.3g eV (bound %.3g) over %d steps",
		drift, sp.driftBound, sim.StepCount())

	pot := sim.Config().Pot
	list, err := neighbor.Builder{Cutoff: pot.Cutoff(), Skin: sim.Config().Skin, Half: true}.
		Build(sim.Sys.Box, sim.Sys.Pos)
	if err != nil {
		out.check("forces_vs_serial", false, "build serial list: %v", err)
		return
	}
	serial, err := serialForces(pot, sim.Sys, list)
	if err != nil {
		out.check("forces_vs_serial", false, "%v", err)
		return
	}
	e := relErr(sim.Sys.Force, serial)
	out.check("forces_vs_serial", e <= forceTol, "max|Δf|/max|f| = %.3g (tol %.0e)", e, forceTol)
	if sp.reference {
		ref, _, _, _ := force.Reference(pot, sim.Sys.Box, sim.Sys.Pos)
		e := relErr(sim.Sys.Force, ref)
		out.check("forces_vs_reference", e <= forceTol, "max|Δf|/max|f| = %.3g (tol %.0e)", e, forceTol)
	}
}

func serialForces(pot potential.EAM, sys *md.System, list *neighbor.List) ([]vec.Vec3, error) {
	red, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: list})
	if err != nil {
		return nil, err
	}
	eng, err := force.NewEngine(pot, sys.Box)
	if err != nil {
		return nil, err
	}
	f := make([]vec.Vec3, sys.N())
	if _, err := eng.Compute(red, sys.Pos, f); err != nil {
		return nil, fmt.Errorf("serial compute: %w", err)
	}
	return f, nil
}

// relErr is max_i |a_i − b_i| / max_i |b_i|.
func relErr(a, b []vec.Vec3) float64 {
	var num, den float64
	for i := range b {
		num = math.Max(num, a[i].Sub(b[i]).Norm())
		den = math.Max(den, b[i].Norm())
	}
	if den == 0 {
		return num
	}
	return num / den
}

// runMDTraced steps a simulator with a telemetry recorder attached and
// a span around every StepCtx call, in turn with an untraced twin on
// the same seed (identical trajectory, identical rebuild steps), then
// replays rebuild-time positions through the neighbor, core and
// reorder layers and runs the shared probes.
func runMDTraced(sp mdSpec, o options, tr *Tracer) (*outcome, error) {
	out := &outcome{}
	rec := telemetry.NewRecorder()
	sim, err := sp.newSim(o.seed, rec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer sim.Close()
	twin, err := sp.newSim(o.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up twin: %w", err)
	}
	defer twin.Close()
	e0 := sim.TotalEnergy()
	n := sp.atoms()

	var traced, untraced stepTimes
	var phaseNS [3]float64 // density, embed, force over normal steps
	var dens, embed, frc, pairs float64
	var snaps [][]vec.Vec3
	counts := rebuildCounter{horizon: sp.horizon}
	before := rec.Snapshot()
	prev := before
	var tracedWall, tracedLoop time.Duration
	t0 := time.Now()
	for k := 0; ; {
		c0 := time.Now()
		for i := 0; i < twinChunk; i, k = i+1, k+1 {
			span := tr.Start("md.step", strconv.Itoa(k), 0)
			d, rebuilt, err := step(sim)
			if err != nil {
				return nil, err
			}
			now := rec.Snapshot()
			dd := (now.Density.Seconds - prev.Density.Seconds) * 1e9
			de := (now.Embed.Seconds - prev.Embed.Seconds) * 1e9
			df := (now.Force.Seconds - prev.Force.Seconds) * 1e9
			prev = now
			p := float64(sim.List().Pairs())
			span.End(map[string]float64{"density_ns": dd, "embed_ns": de, "force_ns": df,
				"pairs": p, "rebuilt": b2f(rebuilt)})
			tracedWall += d
			traced.add(d, rebuilt)
			dens, embed, frc, pairs = dens+dd, embed+de, frc+df, pairs+p
			if !rebuilt {
				phaseNS[0] += dd
				phaseNS[1] += de
				phaseNS[2] += df
			} else {
				counts.observe(k, sim.List().Pairs())
				if len(snaps) < maxSnaps {
					snaps = append(snaps, append([]vec.Vec3(nil), sim.Sys.Pos...))
				}
			}
		}
		tracedLoop += time.Since(c0)
		for i := 0; i < twinChunk; i++ {
			d, rebuilt, err := step(twin)
			if err != nil {
				return nil, err
			}
			untraced.add(d, rebuilt)
		}
		// Half of --seconds each for the traced simulator and its twin,
		// so a traced run takes about as long as an untraced one.
		limit := time.Duration(o.seconds / 2 * float64(time.Second))
		if (tracedWall >= limit && traced.steps() >= sp.horizon) || time.Since(t0) >= 2*limit+overrun {
			break
		}
	}
	after := rec.Snapshot()
	steps := traced.steps()
	if calls := after.Density.Calls - before.Density.Calls; calls != int64(steps) {
		out.check("telemetry_calls", false, "%d density calls for %d steps", calls, steps)
	}
	checkMD(out, sp, sim, e0)
	out.attempted = steps + untraced.steps()

	out.set("force.density_ns_per_pair", dens/pairs, "ns")
	out.set("force.force_ns_per_pair", frc/pairs, "ns")
	out.set("force.embed_ns_per_atom", embed/(float64(steps)*float64(n)), "ns")
	util, steals := workerDeltas(before, after)
	out.set("strategy.utilization", util, "fraction")
	out.set("strategy.steals_per_step", steals/float64(steps), "count")

	normalMS := durationsMS(traced.normal)
	out.set("md.step_ms_p50", median(normalMS), "ms")
	out.set("md.rebuild_step_ms_p50", median(durationsMS(traced.rebuild)), "ms")
	out.set("md.rebuilds", float64(counts.rebuilds), "count")
	out.note("md.rebuilds", fmt.Sprintf("rebuilds within the first %d steps", sp.horizon))
	out.set("md.outside_force_frac", 1-sum(phaseNS[:])/1e6/sum(normalMS), "fraction")
	out.set("trace.overhead_frac", float64(tracedWall)/float64(sumDur(untraced.normal)+sumDur(untraced.rebuild))-1, "fraction")
	out.note("step_accounting", fmt.Sprintf(
		"normal steps %.1f ms = density %.1f + embed %.1f + force %.1f + outside-force %.1f; md.step spans cover %.1f%% of the %.3f s traced stepping loop",
		sum(normalMS), phaseNS[0]/1e6, phaseNS[1]/1e6, phaseNS[2]/1e6, sum(normalMS)-sum(phaseNS[:])/1e6,
		100*float64(tracedWall)/float64(tracedLoop), tracedLoop.Seconds()))

	if counts.firstPairs == 0 {
		counts.firstPairs = sim.List().Pairs()
		out.note("neighbor.pairs", "no rebuild in the traced phase: pairs of the current list")
	}
	if len(snaps) == 0 {
		snaps = append(snaps, append([]vec.Vec3(nil), sim.Sys.Pos...))
	}
	if err := rebuildProbes(out, tr, sim, snaps); err != nil {
		return nil, err
	}
	out.set("neighbor.pairs", float64(counts.firstPairs), "count")
	if err := parallelEfficiency(out, tr, sim); err != nil {
		return nil, err
	}
	if err := sharedProbes(out, tr); err != nil {
		return nil, err
	}
	out.spans = tr.Spans()
	return out, nil
}

// rebuildCounter holds the exact, seed-determined counts of a
// trajectory: rebuilds within the first horizon steps, and the pair
// count of the list built at the first rebuild (whose positions depend
// on the seed, unlike the initial perfect lattice's).
type rebuildCounter struct {
	horizon    int
	rebuilds   int
	firstPairs int
}

// observe records a rebuild at step k with the new list's pair count.
func (c *rebuildCounter) observe(k, pairs int) {
	if c.firstPairs == 0 {
		c.firstPairs = pairs
	}
	if k < c.horizon {
		c.rebuilds++
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// workerDeltas is the mean worker busy/(busy+wait) and the total steal
// count between two telemetry snapshots.
func workerDeltas(a, b telemetry.Metrics) (util, steals float64) {
	var us []float64
	for i, w := range b.Workers {
		busy, wait, st := w.BusySeconds, w.WaitSeconds, w.Steals
		if i < len(a.Workers) {
			busy -= a.Workers[i].BusySeconds
			wait -= a.Workers[i].WaitSeconds
			st -= a.Workers[i].Steals
		}
		if busy+wait > 0 {
			us = append(us, busy/(busy+wait))
		}
		steals += float64(st)
	}
	if len(us) == 0 {
		return 1, steals // no pool: a serial worker never waits
	}
	return sum(us) / float64(len(us)), steals
}

// rebuildProbes replays the positions seen at rebuild steps through
// neighbor.Builder.Build, Decomposition.Rebin and the block reorder
// (reorder.FromNewToOld + System.Permute), each timed with a span.
func rebuildProbes(out *outcome, tr *Tracer, sim *md.Simulator, snaps [][]vec.Vec3) error {
	cfg := sim.Config()
	bx := sim.Sys.Box
	builder := neighbor.Builder{Cutoff: cfg.Pot.Cutoff(), Skin: cfg.Skin, Half: true}
	reach := cfg.Pot.Cutoff() + cfg.Skin
	var build, rebin, permute []float64
	for i, pos := range snaps {
		req := "snap" + strconv.Itoa(i)
		sp := tr.Start("neighbor.build", req, 0)
		t0 := time.Now()
		if _, err := builder.Build(bx, pos); err != nil {
			return fmt.Errorf("neighbor probe: %w", err)
		}
		build = append(build, ms(time.Since(t0)))
		sp.End(nil)

		// Rebin a decomposition built on the previous snapshot, as the
		// simulator does at a rebuild.
		from := snaps[max(i-1, 0)]
		dec, err := core.Decompose(bx, from, cfg.Dim, reach)
		if err != nil {
			return fmt.Errorf("decompose probe: %w", err)
		}
		sp = tr.Start("core.rebin", req, 0)
		t0 = time.Now()
		dec.Rebin(pos)
		rebin = append(rebin, ms(time.Since(t0)))
		sp.End(nil)

		sys := sim.Sys.Clone()
		copy(sys.Pos, pos)
		sp = tr.Start("reorder.permute", req, 0)
		t0 = time.Now()
		perm, err := reorder.FromNewToOld(dec.PartIndex)
		if err != nil {
			return fmt.Errorf("reorder probe: %w", err)
		}
		if err := sys.Permute(perm); err != nil {
			return fmt.Errorf("reorder probe: %w", err)
		}
		permute = append(permute, ms(time.Since(t0)))
		sp.End(nil)
	}
	n := float64(sim.Sys.N())
	out.set("neighbor.build_ms", median(build), "ms")
	out.set("neighbor.ns_per_atom", median(build)*1e6/n, "ns")
	out.set("core.rebin_ms", median(rebin), "ms")
	out.set("reorder.permute_ms", median(permute), "ms")
	return nil
}

// parallelEfficiency times force.Engine.Compute on the final positions
// with a Serial reducer and with the workload's reducer over the same
// list: t_serial / (threads · t_reducer).
func parallelEfficiency(out *outcome, tr *Tracer, sim *md.Simulator) error {
	cfg := sim.Config()
	eng, err := force.NewEngine(cfg.Pot, sim.Sys.Box)
	if err != nil {
		return err
	}
	serial, err := strategy.New(strategy.Config{Kind: strategy.Serial, List: sim.List()})
	if err != nil {
		return err
	}
	f := make([]vec.Vec3, sim.Sys.N())
	timeIt := func(name string, red strategy.Reducer) (float64, error) {
		var ts []float64
		for i := 0; i < 4; i++ {
			sp := tr.Start(name, strconv.Itoa(i), 0)
			t0 := time.Now()
			if _, err := eng.Compute(red, sim.Sys.Pos, f); err != nil {
				return 0, err
			}
			if i > 0 { // first call warms the scratch arrays
				ts = append(ts, float64(time.Since(t0)))
			}
			sp.End(nil)
		}
		return median(ts), nil
	}
	ts, err := timeIt("force.compute.serial", serial)
	if err != nil {
		return err
	}
	tp, err := timeIt("force.compute.reducer", sim.Reducer())
	if err != nil {
		return err
	}
	out.set("strategy.parallel_efficiency", ts/(float64(cfg.Threads)*tp), "fraction")
	return nil
}
