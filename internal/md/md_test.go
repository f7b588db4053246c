package md

import (
	"bytes"
	"encoding/csv"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sdcmd/internal/box"
	"sdcmd/internal/core"
	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/strategy"
	"sdcmd/internal/vec"
)

func feSystem(t *testing.T, cells int, temperature float64) *System {
	t.Helper()
	cfg := lattice.MustBuild(lattice.BCC, cells, cells, cells, 2.8665)
	sys := FromLattice(cfg)
	if err := sys.InitVelocities(temperature, 11); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	if _, err := NewSystem(bx, -1, FeMass); err == nil {
		t.Error("negative atoms accepted")
	}
	if _, err := NewSystem(bx, 5, 0); err == nil {
		t.Error("zero mass accepted")
	}
	s, err := NewSystem(bx, 5, FeMass)
	if err != nil || s.N() != 5 {
		t.Errorf("valid system rejected: %v", err)
	}
}

func TestInitVelocities(t *testing.T) {
	sys := feSystem(t, 5, 300)
	if got := sys.Temperature(); math.Abs(got-300) > 1e-6 {
		t.Errorf("T after init = %g, want 300", got)
	}
	if p := sys.Momentum(); p.Norm() > 1e-9 {
		t.Errorf("net momentum %v, want 0", p)
	}
	// Determinism.
	a := feSystem(t, 3, 100)
	b := feSystem(t, 3, 100)
	for i := range a.Vel {
		if a.Vel[i] != b.Vel[i] {
			t.Fatal("velocity init not deterministic")
		}
	}
	if err := a.InitVelocities(-5, 1); err == nil {
		t.Error("negative T accepted")
	}
	if err := a.InitVelocities(0, 1); err != nil {
		t.Error("T=0 rejected")
	}
	if ke := a.KineticEnergy(); ke != 0 {
		t.Errorf("T=0 init leaves KE=%g", ke)
	}
}

func TestTemperatureOfEmptySystem(t *testing.T) {
	bx := box.MustNew(vec.Zero, vec.Splat(10))
	s, _ := NewSystem(bx, 0, FeMass)
	if s.Temperature() != 0 {
		t.Error("empty system temperature must be 0")
	}
	if err := s.InitVelocities(100, 1); err != nil {
		t.Error(err)
	}
	s.ZeroMomentum() // must not panic
}

func TestSystemClone(t *testing.T) {
	sys := feSystem(t, 3, 50)
	c := sys.Clone()
	c.Pos[0] = vec.New(9, 9, 9)
	c.Vel[0] = vec.New(1, 1, 1)
	if sys.Pos[0] == c.Pos[0] || sys.Vel[0] == c.Vel[0] {
		t.Error("Clone must deep-copy")
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	sys := feSystem(t, 4, 100)
	good := DefaultConfig()
	if _, err := NewSimulator(nil, good); err == nil {
		t.Error("nil system accepted")
	}
	for i, mut := range []func(*Config){
		func(c *Config) { c.Pot = nil },
		func(c *Config) { c.Dt = 0 },
		func(c *Config) { c.Skin = -1 },
		func(c *Config) { c.Threads = 0 },
		func(c *Config) { c.Thermostat = &Berendsen{Target: -1, Tau: 1} },
		func(c *Config) { c.Thermostat = &Berendsen{Target: 100, Tau: 0} },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := NewSimulator(sys, cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	sim, err := NewSimulator(sys, good)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	sim.Close()
	if err := sim.Step(1); err == nil {
		t.Error("Step after Close accepted")
	}
}

func TestEnergyConservationNVE(t *testing.T) {
	// The cornerstone physics test: with the smooth cutoff and a sane
	// timestep, total energy drifts by a tiny fraction over many steps.
	sys := feSystem(t, 4, 150)
	cfg := DefaultConfig()
	cfg.Dt = 1e-3 // 1 fs
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	e0 := sim.TotalEnergy()
	if err := sim.Step(200); err != nil {
		t.Fatal(err)
	}
	e1 := sim.TotalEnergy()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 1e-4 {
		t.Errorf("NVE energy drift %g over 200 steps (E: %g -> %g)", drift, e0, e1)
	}
	if sim.StepCount() != 200 {
		t.Errorf("StepCount = %d", sim.StepCount())
	}
}

func TestMomentumConservation(t *testing.T) {
	sys := feSystem(t, 4, 200)
	cfg := DefaultConfig()
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Step(100); err != nil {
		t.Fatal(err)
	}
	if p := sys.Momentum(); p.Norm() > 1e-8 {
		t.Errorf("momentum after 100 steps: %v", p)
	}
}

func TestStrategiesProduceIdenticalTrajectories(t *testing.T) {
	// Parallel runs must track the serial trajectory: same positions
	// after many steps (floating-point reduction order differs, so use
	// a tolerance).
	mkSim := func(k strategy.Kind, threads int) (*Simulator, *System) {
		sys := feSystem(t, 6, 120)
		cfg := DefaultConfig()
		cfg.Strategy = k
		cfg.Threads = threads
		cfg.Dim = core.Dim2
		sim, err := NewSimulator(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim, sys
	}
	ref, refSys := mkSim(strategy.Serial, 1)
	defer ref.Close()
	if err := ref.Step(20); err != nil {
		t.Fatal(err)
	}
	for _, k := range []strategy.Kind{strategy.SDC, strategy.RC, strategy.SAP, strategy.Tasked} {
		sim, sys := mkSim(k, 3)
		if err := sim.Step(20); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		for i := range sys.Pos {
			d := sys.Box.MinImage(sys.Pos[i], refSys.Pos[i]).Norm()
			if d > 1e-7 {
				t.Fatalf("%v: trajectory diverged at atom %d by %g Å", k, i, d)
			}
		}
		sim.Close()
	}
}

// TestBlockReorderPreservesPhysics runs the same system with and
// without the block-reorder pass. The reorder relabels atoms, so the
// runs are compared on relabeling-invariant quantities (energies,
// momentum) and on the position multiset, while the reordered run must
// actually reach the contiguous fast path.
func TestBlockReorderPreservesPhysics(t *testing.T) {
	run := func(k strategy.Kind, blocked bool) (*Simulator, *System) {
		sys := feSystem(t, 6, 120)
		cfg := DefaultConfig()
		cfg.Strategy = k
		cfg.Threads = 3
		cfg.Dim = core.Dim2
		cfg.BlockReorder = blocked
		sim, err := NewSimulator(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Step(20); err != nil {
			t.Fatal(err)
		}
		return sim, sys
	}
	for _, k := range []strategy.Kind{strategy.SDC, strategy.Tasked} {
		ref, refSys := run(k, false)
		blk, blkSys := run(k, true)
		if !blk.Decomposition().Contiguous() {
			t.Errorf("%v: block-reordered decomposition not contiguous", k)
		}
		if ref.Decomposition().Contiguous() {
			t.Errorf("%v: scattered baseline unexpectedly contiguous (test is vacuous)", k)
		}
		if dE := math.Abs(blk.TotalEnergy() - ref.TotalEnergy()); dE > 1e-7 {
			t.Errorf("%v: total energy differs by %g eV under reorder", k, dE)
		}
		if p := blkSys.Momentum(); p.Norm() > 1e-8 {
			t.Errorf("%v: momentum not conserved under reorder: %v", k, p)
		}
		// Position multiset: every reference atom must have a (unique
		// lattice site) counterpart in the reordered run.
		for i := range refSys.Pos {
			best := math.Inf(1)
			for j := range blkSys.Pos {
				if d := refSys.Box.MinImage(refSys.Pos[i], blkSys.Pos[j]).Norm(); d < best {
					best = d
				}
			}
			if best > 1e-7 {
				t.Fatalf("%v: reference atom %d has no counterpart within %g Å", k, i, best)
			}
		}
		ref.Close()
		blk.Close()
	}
}

func TestBlockReorderValidation(t *testing.T) {
	sys := feSystem(t, 4, 100)
	cfg := DefaultConfig()
	cfg.BlockReorder = true // serial strategy: no decomposition
	if _, err := NewSimulator(sys, cfg); err == nil {
		t.Error("BlockReorder with serial strategy accepted")
	}
	cfg.Strategy = strategy.SAP
	cfg.Threads = 2
	if _, err := NewSimulator(sys, cfg); err == nil {
		t.Error("BlockReorder with SAP strategy accepted")
	}
}

func TestBerendsenThermostatReachesTarget(t *testing.T) {
	sys := feSystem(t, 4, 50)
	cfg := DefaultConfig()
	cfg.Dt = 1e-3
	cfg.Thermostat = &Berendsen{Target: 300, Tau: 0.01}
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Step(300); err != nil {
		t.Fatal(err)
	}
	got := sys.Temperature()
	if math.Abs(got-300) > 60 {
		t.Errorf("T after thermostat = %g, want ≈300", got)
	}
}

func TestThermostatFromZeroVelocities(t *testing.T) {
	// Thermostat with zero kinetic energy must not divide by zero; the
	// crystal heats from jitter-induced potential energy converted by
	// the clamp path.
	cfg0 := lattice.MustBuild(lattice.BCC, 3, 3, 3, 2.8665)
	cfg0.Jitter(0.05, 5)
	sys := FromLattice(cfg0)
	cfg := DefaultConfig()
	cfg.Thermostat = &Berendsen{Target: 100, Tau: 0.01}
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Step(10); err != nil {
		t.Fatal(err)
	}
}

// TestRebuiltListsMatchBruteForce melts a crystal from 3000 K so the
// list rebuilds every few steps, and checks after every rebuild that the
// list the simulator built on its own worker pool is the O(N²) oracle's
// CSR byte for byte. The serial strategy owns no pool, so its case runs
// the same path with a nil pool.
func TestRebuiltListsMatchBruteForce(t *testing.T) {
	cases := []struct {
		kind    strategy.Kind
		threads int
		reorder bool
	}{
		{strategy.Tasked, 3, true},
		{strategy.SDC, 2, false},
		{strategy.Serial, 1, false},
	}
	for _, c := range cases {
		sys := feSystem(t, 6, 3000)
		cfg := DefaultConfig()
		cfg.Strategy, cfg.Threads, cfg.BlockReorder = c.kind, c.threads, c.reorder
		sim, err := NewSimulator(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle := neighbor.Builder{Cutoff: cfg.Pot.Cutoff(), Skin: cfg.Skin, Half: true}
		check := func(step int) {
			want, err := oracle.BuildBruteForce(sys.Box, sys.Pos)
			if err != nil {
				t.Fatal(err)
			}
			got := sim.List()
			if !slices.Equal(got.Index, want.Index) || !slices.Equal(got.Len, want.Len) || !slices.Equal(got.Neigh, want.Neigh) {
				t.Fatalf("%v: list rebuilt at step %d differs from brute force (%d vs %d pairs)",
					c.kind, step, got.Pairs(), want.Pairs())
			}
		}
		check(0)
		seen := sim.Rebuilds()
		for step := 1; step <= 200; step++ {
			if err := sim.Step(1); err != nil {
				t.Fatalf("%v: %v", c.kind, err)
			}
			if sim.Rebuilds() != seen {
				seen = sim.Rebuilds()
				check(step)
			}
		}
		if seen < 6 {
			t.Errorf("%v: only %d rebuilds in 200 steps; the melt did not exercise the rebuild path", c.kind, seen)
		}
		sim.Close()
	}
}

func TestRebuildTriggersOnMotion(t *testing.T) {
	sys := feSystem(t, 4, 2000) // hot: atoms move fast
	cfg := DefaultConfig()
	cfg.Dt = 2e-3
	cfg.Skin = 0.1 // tiny skin: frequent rebuilds
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	before := sim.Rebuilds()
	if err := sim.Step(50); err != nil {
		t.Fatal(err)
	}
	if sim.Rebuilds() == before {
		t.Error("hot system with tiny skin never rebuilt the list")
	}
	if sim.ForceTime() <= 0 {
		t.Error("force time not accumulated")
	}
	sim.ResetForceTime()
	if sim.ForceTime() != 0 {
		t.Error("ResetForceTime failed")
	}
}

func TestZeroSkinRebuildsEveryStep(t *testing.T) {
	sys := feSystem(t, 4, 100)
	cfg := DefaultConfig()
	cfg.Skin = 0
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	r0 := sim.Rebuilds()
	if err := sim.Step(5); err != nil {
		t.Fatal(err)
	}
	if sim.Rebuilds() != r0+5 {
		t.Errorf("rebuilds = %d, want %d", sim.Rebuilds(), r0+5)
	}
}

func TestApplyStrainChangesBoxAndSurvives(t *testing.T) {
	sys := feSystem(t, 6, 100)
	cfg := DefaultConfig()
	cfg.Strategy = strategy.SDC
	cfg.Threads = 2
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	vol0 := sys.Box.Volume()
	if err := sim.ApplyStrain(vec.New(0.01, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if sys.Box.Volume() <= vol0 {
		t.Error("tensile strain must grow the box")
	}
	if err := sim.Step(5); err != nil {
		t.Fatalf("step after strain: %v", err)
	}
	// Stretched along x: the crystal pulls back. Potential energy above
	// the relaxed minimum.
	if sim.Decomposition() == nil {
		t.Error("SDC simulator lost its decomposition")
	}
	if sim.List() == nil || sim.Reducer() == nil {
		t.Error("accessors returned nil")
	}
}

func TestStrainedCrystalFeelsRestoringStress(t *testing.T) {
	// Micro-deformation sanity: stretching a relaxed crystal raises
	// its potential energy.
	sys0 := feSystem(t, 4, 0)
	cfg := DefaultConfig()
	sim, err := NewSimulator(sys0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	e0 := sim.PotentialEnergy()
	if err := sim.ApplyStrain(vec.Splat(0.03)); err != nil {
		t.Fatal(err)
	}
	e1 := sim.PotentialEnergy()
	if e1 <= e0 {
		t.Errorf("strained PE %g <= relaxed PE %g", e1, e0)
	}
}

func TestUnits(t *testing.T) {
	// Cross-check: kB·300K in eV ≈ 0.02585.
	if math.Abs(KB*300-0.025852) > 1e-5 {
		t.Errorf("kB·300 = %g", KB*300)
	}
	// Fe thermal velocity at 300 K ≈ sqrt(3kT/m) ≈ 3.7 Å/ps.
	v := math.Sqrt(3 * KB * 300 / FeMass)
	if v < 3 || v > 4.5 {
		t.Errorf("Fe thermal velocity = %g Å/ps, expected ≈3.7", v)
	}
	if PaperTimestep != 1e-5 {
		t.Error("paper timestep must be 1e-5 ps (1e-17 s)")
	}
}

func TestBlowupDetection(t *testing.T) {
	// An absurd timestep makes the integration explode; the simulator
	// must stop with a diagnosable error rather than emit NaNs.
	sys := feSystem(t, 4, 5000)
	cfg := DefaultConfig()
	cfg.Dt = 10.0 // 10 ps: wildly unstable
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err) // initial forces are fine
	}
	defer sim.Close()
	err = sim.Step(50)
	if err == nil {
		t.Fatal("unstable integration did not error")
	}
	if !strings.Contains(err.Error(), "md:") {
		t.Errorf("unhelpful blow-up error: %v", err)
	}
}

func TestMinimizeValidation(t *testing.T) {
	sys := feSystem(t, 3, 0)
	sim, err := NewSimulator(sys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Minimize(0, 1e-3); err == nil {
		t.Error("maxSteps=0 accepted")
	}
	if _, err := sim.Minimize(10, 0); err == nil {
		t.Error("fTol=0 accepted")
	}
	sim.Close()
	if _, err := sim.Minimize(10, 1e-3); err == nil {
		t.Error("Minimize after Close accepted")
	}
}

func TestMinimizeRelaxesJitteredCrystal(t *testing.T) {
	cfg0 := lattice.MustBuild(lattice.BCC, 4, 4, 4, 2.8665)
	cfg0.Jitter(0.15, 9)
	sys := FromLattice(cfg0)
	sim, err := NewSimulator(sys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	e0 := sim.PotentialEnergy()
	res, err := sim.Minimize(2000, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("FIRE did not converge: %+v", res)
	}
	if res.Energy >= e0 {
		t.Errorf("relaxation raised energy: %g -> %g", e0, res.Energy)
	}
	if res.FMax > 1e-6 {
		t.Errorf("FMax = %g", res.FMax)
	}
	// The jittered crystal must relax back to (essentially) the perfect
	// lattice energy.
	perfect := FromLattice(lattice.MustBuild(lattice.BCC, 4, 4, 4, 2.8665))
	simP, err := NewSimulator(perfect, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer simP.Close()
	eP := simP.PotentialEnergy()
	if math.Abs(res.Energy-eP) > 1e-4*math.Abs(eP) {
		t.Errorf("relaxed energy %g vs perfect lattice %g", res.Energy, eP)
	}
	// Velocities are zeroed on return.
	if sys.KineticEnergy() != 0 {
		t.Error("Minimize left kinetic energy behind")
	}
}

func TestMinimizeAlreadyRelaxed(t *testing.T) {
	sys := feSystem(t, 3, 0)
	sim, err := NewSimulator(sys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	res, err := sim.Minimize(50, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Steps > 2 {
		t.Errorf("perfect crystal should converge immediately: %+v", res)
	}
}

func TestLangevinThermostat(t *testing.T) {
	// Langevin heats a crystal from absolute rest to the target.
	sys := feSystem(t, 4, 0)
	cfg := DefaultConfig()
	cfg.Thermostat = &Langevin{Target: 300, Gamma: 50, Seed: 5}
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Step(400); err != nil {
		t.Fatal(err)
	}
	got := sys.Temperature()
	if got < 150 || got > 480 {
		t.Errorf("Langevin T = %g, want fluctuation around 300", got)
	}
	// Bad params rejected.
	bad := DefaultConfig()
	bad.Thermostat = &Langevin{Target: -1, Gamma: 1}
	if _, err := NewSimulator(feSystem(t, 3, 0), bad); err == nil {
		t.Error("negative target accepted")
	}
	bad.Thermostat = &Langevin{Target: 100, Gamma: 0}
	if _, err := NewSimulator(feSystem(t, 3, 0), bad); err == nil {
		t.Error("zero friction accepted")
	}
}

func TestLangevinDeterministicSeed(t *testing.T) {
	run := func() float64 {
		sys := feSystem(t, 3, 0)
		cfg := DefaultConfig()
		cfg.Thermostat = &Langevin{Target: 200, Gamma: 20, Seed: 9}
		sim, err := NewSimulator(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		if err := sim.Step(30); err != nil {
			t.Fatal(err)
		}
		return sys.KineticEnergy()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different trajectories: %g vs %g", a, b)
	}
}

func TestThermoLogger(t *testing.T) {
	sys := feSystem(t, 3, 100)
	sim, err := NewSimulator(sys, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	var buf bytes.Buffer
	lg, err := NewThermoLogger(&buf, sim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewThermoLogger(nil, sim); err == nil {
		t.Error("nil writer accepted")
	}
	if _, err := NewThermoLogger(&buf, nil); err == nil {
		t.Error("nil simulator accepted")
	}
	for k := 0; k < 3; k++ {
		if err := lg.Log(); err != nil {
			t.Fatal(err)
		}
		if err := sim.Step(5); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 { // header + 3 rows
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0][0] != "step" || len(recs[0]) != 6 {
		t.Errorf("header = %v", recs[0])
	}
	if recs[1][0] != "0" || recs[2][0] != "5" || recs[3][0] != "10" {
		t.Errorf("steps = %v %v %v", recs[1][0], recs[2][0], recs[3][0])
	}
	// Energy column is conserved across rows (NVE).
	e0, err := strconv.ParseFloat(recs[1][5], 64)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := strconv.ParseFloat(recs[3][5], 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e2-e0) > 1e-3*math.Abs(e0) {
		t.Errorf("logged NVE energy drifted: %g -> %g", e0, e2)
	}
}

// alloyFeSystem builds a random 50/50 two-species bcc crystal with
// distinct masses (Fe and a lighter partner).
func alloyFeSystem(t *testing.T, cells int, temperature float64) (*System, []int32) {
	t.Helper()
	cfg := lattice.MustBuild(lattice.BCC, cells, cells, cells, 2.8665)
	sys := FromLattice(cfg)
	species := make([]int32, sys.N())
	masses := make([]float64, sys.N())
	for i := range species {
		species[i] = int32(i % 2)
		if species[i] == 0 {
			masses[i] = FeMass
		} else {
			masses[i] = 51.996 * AMU // chromium
		}
	}
	if err := sys.SetMasses(masses); err != nil {
		t.Fatal(err)
	}
	if err := sys.InitVelocities(temperature, 13); err != nil {
		t.Fatal(err)
	}
	return sys, species
}

func TestSetMassesValidation(t *testing.T) {
	sys := feSystem(t, 3, 0)
	if err := sys.SetMasses(make([]float64, 3)); err == nil {
		t.Error("wrong length accepted")
	}
	bad := make([]float64, sys.N())
	if err := sys.SetMasses(bad); err == nil {
		t.Error("zero masses accepted")
	}
	good := make([]float64, sys.N())
	for i := range good {
		good[i] = FeMass
	}
	if err := sys.SetMasses(good); err != nil {
		t.Fatal(err)
	}
	if sys.MassOf(0) != FeMass {
		t.Error("MassOf wrong")
	}
}

func TestAlloySimulatorValidation(t *testing.T) {
	sys, species := alloyFeSystem(t, 4, 100)
	cfg := DefaultConfig()
	// Both Pot and Alloy set: rejected.
	cfg.Alloy = potential.DefaultFeCr()
	cfg.Species = species
	if _, err := NewSimulator(sys, cfg); err == nil {
		t.Error("Pot+Alloy both set accepted")
	}
	// Neither set: rejected.
	cfg.Pot = nil
	cfg.Alloy = nil
	if _, err := NewSimulator(sys, cfg); err == nil {
		t.Error("neither Pot nor Alloy accepted")
	}
	// Alloy with wrong species length: rejected.
	cfg.Alloy = potential.DefaultFeCr()
	cfg.Species = species[:3]
	if _, err := NewSimulator(sys, cfg); err == nil {
		t.Error("short species accepted")
	}
}

func TestAlloyDynamicsNVE(t *testing.T) {
	sys, species := alloyFeSystem(t, 4, 150)
	cfg := DefaultConfig()
	cfg.Pot = nil
	cfg.Alloy = potential.DefaultFeCr()
	cfg.Species = species
	sim, err := NewSimulator(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	e0 := sim.TotalEnergy()
	if err := sim.Step(150); err != nil {
		t.Fatal(err)
	}
	e1 := sim.TotalEnergy()
	if drift := math.Abs(e1-e0) / math.Abs(e0); drift > 1e-4 {
		t.Errorf("alloy NVE drift %g (E %g -> %g)", drift, e0, e1)
	}
	// Momentum stays zero with unequal masses.
	if p := sys.Momentum(); p.Norm() > 1e-8 {
		t.Errorf("alloy momentum %v", p)
	}
}

func TestAlloyDynamicsWithSDC(t *testing.T) {
	sys, species := alloyFeSystem(t, 6, 100)
	ref := sys.Clone()

	run := func(s *System, k strategy.Kind, threads int) {
		cfg := DefaultConfig()
		cfg.Pot = nil
		cfg.Alloy = potential.DefaultFeCr()
		cfg.Species = species
		cfg.Strategy = k
		cfg.Threads = threads
		sim, err := NewSimulator(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		if err := sim.Step(15); err != nil {
			t.Fatal(err)
		}
	}
	run(sys, strategy.Serial, 1)
	run(ref, strategy.SDC, 3)
	for i := range sys.Pos {
		if d := sys.Box.MinImage(sys.Pos[i], ref.Pos[i]).Norm(); d > 1e-7 {
			t.Fatalf("alloy SDC trajectory diverged at %d by %g", i, d)
		}
	}
}

func TestEquipartitionAcrossMasses(t *testing.T) {
	// After Maxwell-Boltzmann init, light and heavy species hold the
	// same average kinetic energy (equipartition), i.e. different
	// velocity scales.
	sys, species := alloyFeSystem(t, 6, 300)
	keBySpecies := [2]float64{}
	nBySpecies := [2]int{}
	for i, v := range sys.Vel {
		s := species[i]
		keBySpecies[s] += 0.5 * sys.MassOf(i) * v.Norm2()
		nBySpecies[s]++
	}
	mean0 := keBySpecies[0] / float64(nBySpecies[0])
	mean1 := keBySpecies[1] / float64(nBySpecies[1])
	if math.Abs(mean0-mean1)/mean0 > 0.15 {
		t.Errorf("equipartition violated: %g vs %g eV/atom", mean0, mean1)
	}
}

func TestConfigValidateNonFinite(t *testing.T) {
	for i, mut := range []func(*Config){
		func(c *Config) { c.Dt = math.NaN() },
		func(c *Config) { c.Dt = math.Inf(1) },
		func(c *Config) { c.Dt = math.Inf(-1) },
		func(c *Config) { c.Skin = math.NaN() },
		func(c *Config) { c.Skin = math.Inf(1) },
		func(c *Config) { c.Threads = 0 },
		func(c *Config) { c.Threads = -4 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted by Validate", i)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	// The same rejections must reach NewSimulator before any stepping.
	sys := feSystem(t, 3, 100)
	bad := DefaultConfig()
	bad.Dt = math.NaN()
	if _, err := NewSimulator(sys, bad); err == nil {
		t.Error("NaN Dt accepted by NewSimulator")
	}
}

func TestRebuildBarrierKeepsTrajectory(t *testing.T) {
	// Forcing a rebuild mid-run must not change the physics: the same
	// positions produce the same (within-tolerance) forces, and the
	// subsequent trajectory matches a checkpoint-restored run exactly.
	sys := feSystem(t, 3, 150)
	cfg := DefaultConfig()
	simA, err := NewSimulator(sys.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer simA.Close()
	if err := simA.Step(7); err != nil {
		t.Fatal(err)
	}
	if err := simA.Rebuild(); err != nil {
		t.Fatal(err)
	}
	// A fresh simulator built from the post-rebuild state sees the same
	// forces bit-for-bit (both lists were built from the same positions).
	simB, err := NewSimulator(simA.Sys.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer simB.Close()
	for i := range simA.Sys.Force {
		if simA.Sys.Force[i] != simB.Sys.Force[i] {
			t.Fatalf("force[%d] differs after rebuild barrier: %v vs %v",
				i, simA.Sys.Force[i], simB.Sys.Force[i])
		}
	}
	if err := simA.Step(5); err != nil {
		t.Fatal(err)
	}
	if err := simB.Step(5); err != nil {
		t.Fatal(err)
	}
	for i := range simA.Sys.Pos {
		if simA.Sys.Pos[i] != simB.Sys.Pos[i] {
			t.Fatalf("trajectories diverged at atom %d", i)
		}
	}
	simA.Close()
	if err := simA.Rebuild(); err == nil {
		t.Error("Rebuild after Close accepted")
	}
}
