package md

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sdcmd/internal/box"
	"sdcmd/internal/core"
	"sdcmd/internal/force"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/reorder"
	"sdcmd/internal/strategy"
	"sdcmd/internal/telemetry"
	"sdcmd/internal/vec"
)

// Config selects the numerical and parallelization parameters of a
// Simulator.
type Config struct {
	// Pot is the interatomic potential.
	Pot potential.EAM
	// Strategy picks the reduction strategy for the force loops.
	Strategy strategy.Kind
	// Threads is the worker count for parallel strategies (>= 1).
	Threads int
	// Dim is the SDC dimensionality (ignored by other strategies).
	Dim core.Dim
	// Skin is the Verlet skin (>= 0); lists rebuild automatically when
	// any atom has moved more than Skin/2 since the last build.
	Skin float64
	// BlockReorder, when true, permutes the atoms into decomposition
	// block order at every neighbor-list rebuild, making each
	// subdomain's atoms contiguous in memory — the §II.D cache-blocking
	// reorder that enables the dense cell-block sweeps of the SDC and
	// tasked strategies. It renumbers atoms (trajectory output order
	// changes) so it is opt-in, requires a decomposition strategy (SDC
	// or Tasked), and currently excludes alloy systems.
	BlockReorder bool
	// Dt is the timestep in ps.
	Dt float64
	// Thermostat, when non-nil, is applied after every step.
	Thermostat Thermostat
	// Alloy, with Species, replaces Pot for multi-species systems:
	// the simulator then drives a force.AlloyEngine. Exactly one of
	// Pot/Alloy must be set.
	Alloy   potential.AlloyEAM
	Species []int32
	// Telemetry, when non-nil, receives per-phase force timers,
	// per-color sweep times, per-worker utilization and the rebuild
	// counter. nil (the default) disables collection entirely — the hot
	// path then pays only nil checks. The recorder outlives any single
	// simulator, so guard rollbacks keep accumulating into it.
	Telemetry *telemetry.Recorder
}

// DefaultConfig returns serviceable defaults: serial strategy, the
// standard Fe potential, a 0.5 Å skin and a 1 fs timestep.
func DefaultConfig() Config {
	return Config{
		Pot:      potential.DefaultFe(),
		Strategy: strategy.Serial,
		Threads:  1,
		Dim:      core.Dim2,
		Skin:     0.5,
		Dt:       1e-3,
	}
}

// Validate rejects unusable numerical parameters before the first step:
// a NaN or infinite Dt/Skin would otherwise surface only mid-run as a
// blown-up trajectory, and Threads < 1 as a pool construction failure.
// System-dependent checks (species length) live in NewSimulator.
func (c *Config) Validate() error {
	if (c.Pot == nil) == (c.Alloy == nil) {
		return errors.New("md: exactly one of Pot and Alloy must be set")
	}
	if math.IsNaN(c.Dt) || math.IsInf(c.Dt, 0) {
		return fmt.Errorf("md: timestep %g must be finite", c.Dt)
	}
	if !(c.Dt > 0) {
		return fmt.Errorf("md: timestep %g must be positive", c.Dt)
	}
	if math.IsNaN(c.Skin) || math.IsInf(c.Skin, 0) {
		return fmt.Errorf("md: skin %g must be finite", c.Skin)
	}
	if c.Skin < 0 {
		return fmt.Errorf("md: skin %g must be non-negative", c.Skin)
	}
	if c.Threads < 1 {
		return fmt.Errorf("md: threads %d must be >= 1", c.Threads)
	}
	if c.BlockReorder {
		if c.Strategy != strategy.SDC && c.Strategy != strategy.Tasked {
			return fmt.Errorf("md: BlockReorder requires a decomposition strategy (sdc or tasked), got %v", c.Strategy)
		}
		if c.Alloy != nil {
			return errors.New("md: BlockReorder does not support alloy systems (species arrays are not permuted)")
		}
	}
	if c.Thermostat != nil {
		if err := c.Thermostat.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Thermostat adjusts velocities after each step to regulate
// temperature. Implementations are stateful and not concurrency-safe;
// one instance belongs to one simulator.
type Thermostat interface {
	// Apply rescales/perturbs velocities for one step of length dt.
	Apply(sys *System, dt float64)
	// Validate rejects unusable parameters.
	Validate() error
}

// Berendsen is the weak-coupling thermostat: each step velocities are
// scaled by λ = sqrt(1 + Δt/τ (T₀/T − 1)).
type Berendsen struct {
	// Target is T₀ in K.
	Target float64
	// Tau is the coupling time constant in ps (>= Dt for stability).
	Tau float64
}

// Validate implements Thermostat.
func (b *Berendsen) Validate() error {
	if !(b.Target >= 0) || !(b.Tau > 0) {
		return fmt.Errorf("md: bad Berendsen thermostat %+v", *b)
	}
	return nil
}

// Apply implements Thermostat.
func (b *Berendsen) Apply(sys *System, dt float64) {
	cur := sys.Temperature()
	if cur <= 0 {
		return
	}
	lambda2 := 1 + dt/b.Tau*(b.Target/cur-1)
	if lambda2 < 0.25 {
		lambda2 = 0.25 // clamp: avoid catastrophic rescales on cold starts
	}
	scale := math.Sqrt(lambda2)
	for i := range sys.Vel {
		sys.Vel[i] = sys.Vel[i].Scale(scale)
	}
}

// Langevin is the stochastic thermostat: each step applies the exact
// Ornstein-Uhlenbeck update v ← c₁·v + c₂·σ·ξ with c₁ = e^{−γΔt},
// c₂ = √(1−c₁²), σ = √(k_B T/m). Unlike Berendsen it produces a true
// canonical ensemble and can heat a crystal from absolute rest.
type Langevin struct {
	// Target is the temperature in K.
	Target float64
	// Gamma is the friction in 1/ps.
	Gamma float64
	// Seed makes the noise reproducible.
	Seed int64

	rng *rand.Rand
}

// Validate implements Thermostat.
func (l *Langevin) Validate() error {
	if !(l.Target >= 0) || !(l.Gamma > 0) {
		return fmt.Errorf("md: bad Langevin thermostat %+v", *l)
	}
	return nil
}

// Apply implements Thermostat.
func (l *Langevin) Apply(sys *System, dt float64) {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.Seed))
	}
	c1 := math.Exp(-l.Gamma * dt)
	c2 := math.Sqrt(1 - c1*c1)
	for i := range sys.Vel {
		sigma := math.Sqrt(KB * l.Target / sys.MassOf(i))
		sys.Vel[i] = sys.Vel[i].Scale(c1).Add(vec.New(
			c2*sigma*l.rng.NormFloat64(),
			c2*sigma*l.rng.NormFloat64(),
			c2*sigma*l.rng.NormFloat64(),
		))
	}
}

// engineIface abstracts the single-species and alloy force engines.
type engineIface interface {
	Cutoff() float64
	SetBox(bx box.Box)
	SetTelemetry(rec *telemetry.Recorder)
	Compute(red strategy.Reducer, pos, f []vec.Vec3) (force.Result, error)
	PotentialEnergy(red strategy.Reducer, pos []vec.Vec3) (float64, error)
}

// singleEngine adapts *force.Engine.
type singleEngine struct{ e *force.Engine }

func (w singleEngine) Cutoff() float64                      { return w.e.Pot.Cutoff() }
func (w singleEngine) SetBox(bx box.Box)                    { w.e.Box = bx }
func (w singleEngine) SetTelemetry(rec *telemetry.Recorder) { w.e.SetTelemetry(rec) }
func (w singleEngine) Compute(red strategy.Reducer, pos, f []vec.Vec3) (force.Result, error) {
	return w.e.Compute(red, pos, f)
}
func (w singleEngine) PotentialEnergy(red strategy.Reducer, pos []vec.Vec3) (float64, error) {
	total, _, _ := w.e.PotentialEnergy(red, pos)
	return total, nil
}

// alloyEngine adapts *force.AlloyEngine.
type alloyEngine struct{ e *force.AlloyEngine }

func (w alloyEngine) Cutoff() float64                      { return w.e.Pot.Cutoff() }
func (w alloyEngine) SetBox(bx box.Box)                    { w.e.Box = bx }
func (w alloyEngine) SetTelemetry(rec *telemetry.Recorder) { w.e.SetTelemetry(rec) }
func (w alloyEngine) Compute(red strategy.Reducer, pos, f []vec.Vec3) (force.Result, error) {
	return w.e.Compute(red, pos, f)
}
func (w alloyEngine) PotentialEnergy(red strategy.Reducer, pos []vec.Vec3) (float64, error) {
	total, _, _, err := w.e.PotentialEnergy(red, pos)
	return total, err
}

// Simulator advances a System with velocity-Verlet under a chosen
// strategy, owning the neighbor list, SDC decomposition and worker
// pool, and rebuilding them as atoms migrate.
type Simulator struct {
	Sys *System
	cfg Config

	eng        engineIface
	list       *neighbor.List
	dec        *core.Decomposition
	red        strategy.Reducer
	pool       *strategy.Pool
	posAtBuild []vec.Vec3

	step        int
	rebuilds    int
	forceTime   time.Duration
	embedEnergy float64
	closed      bool
}

// NewSimulator validates cfg, builds the initial neighbor list,
// decomposition (for SDC) and reducer, and computes initial forces.
func NewSimulator(sys *System, cfg Config) (*Simulator, error) {
	if sys == nil {
		return nil, errors.New("md: nil system")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Alloy != nil && len(cfg.Species) != sys.N() {
		return nil, fmt.Errorf("md: %d species for %d atoms", len(cfg.Species), sys.N())
	}
	var eng engineIface
	if cfg.Alloy != nil {
		ae, err := force.NewAlloyEngine(cfg.Alloy, sys.Box, cfg.Species)
		if err != nil {
			return nil, err
		}
		eng = alloyEngine{ae}
	} else {
		se, err := force.NewEngine(cfg.Pot, sys.Box)
		if err != nil {
			return nil, err
		}
		eng = singleEngine{se}
	}
	sim := &Simulator{Sys: sys, cfg: cfg, eng: eng}
	eng.SetTelemetry(cfg.Telemetry)
	if cfg.Strategy != strategy.Serial {
		pool, err := strategy.NewPool(cfg.Threads)
		if err != nil {
			return nil, err
		}
		pool.SetTelemetry(cfg.Telemetry)
		sim.pool = pool
	}
	if err := sim.rebuild(); err != nil {
		sim.Close()
		return nil, err
	}
	if err := sim.computeForces(); err != nil {
		sim.Close()
		return nil, err
	}
	return sim, nil
}

// rebuild reconstructs the neighbor list, decomposition and reducer
// from the current positions. The decomposition (and the optional block
// reorder, which permutes positions) comes first so the neighbor list
// is built from the final atom numbering.
func (s *Simulator) rebuild() error {
	reach := s.eng.Cutoff() + s.cfg.Skin
	if s.cfg.Strategy == strategy.SDC || s.cfg.Strategy == strategy.Tasked {
		if s.dec == nil || s.dec.Box != s.Sys.Box {
			dec, err := core.Decompose(s.Sys.Box, s.Sys.Pos, s.cfg.Dim, reach)
			if err != nil {
				return err
			}
			s.dec = dec
		} else {
			s.dec.Rebin(s.Sys.Pos)
		}
		if s.cfg.BlockReorder {
			if err := s.blockReorder(); err != nil {
				return err
			}
		}
	}
	// A nil *strategy.Pool stored in the interface would be non-nil, so
	// the serial strategy passes an untyped nil (one worker).
	var pool neighbor.Parallelizer
	if s.pool != nil {
		pool = s.pool
	}
	list, err := neighbor.Builder{Cutoff: s.eng.Cutoff(), Skin: s.cfg.Skin, Half: true}.
		BuildParallel(s.Sys.Box, s.Sys.Pos, pool)
	if err != nil {
		return err
	}
	s.list = list
	s.red, err = strategy.New(strategy.Config{
		Kind: s.cfg.Strategy, List: s.list, Pool: s.pool, Decomp: s.dec,
		Telemetry: s.cfg.Telemetry,
	})
	if err != nil {
		return err
	}
	if s.posAtBuild == nil || len(s.posAtBuild) != s.Sys.N() {
		s.posAtBuild = make([]vec.Vec3, s.Sys.N())
	}
	copy(s.posAtBuild, s.Sys.Pos)
	s.rebuilds++
	s.cfg.Telemetry.IncRebuild()
	return nil
}

// blockReorder permutes the system into the decomposition's block
// order (PartIndex is exactly the NewToOld mapping of cell-major
// order) and rebins, after which PartIndex is the identity and
// Decomposition.Contiguous() holds — the SDC/tasked sweeps then stream
// each subdomain as one dense index range.
func (s *Simulator) blockReorder() error {
	perm, err := reorder.FromNewToOld(s.dec.PartIndex)
	if err != nil {
		return fmt.Errorf("md: block reorder: %w", err)
	}
	if err := s.Sys.Permute(perm); err != nil {
		return err
	}
	s.dec.Rebin(s.Sys.Pos)
	return nil
}

// needsRebuild applies the Verlet-skin criterion.
func (s *Simulator) needsRebuild() bool {
	if s.cfg.Skin <= 0 {
		return true // no slack: every step needs a fresh list
	}
	half := s.cfg.Skin / 2
	return neighbor.Exceeds(s.Sys.Box, s.posAtBuild, s.Sys.Pos, half*half)
}

// computeForces runs the instrumented three-phase EAM evaluation; the
// accumulated time is exactly what the paper's experiments measure
// ("the running times of the calculations of the electron densities and
// forces", §III.A).
func (s *Simulator) computeForces() error {
	start := time.Now()
	res, err := s.eng.Compute(s.red, s.Sys.Pos, s.Sys.Force)
	s.forceTime += time.Since(start)
	if err != nil {
		return err
	}
	// Blow-up detection: a too-large timestep or overlapping atoms
	// produces non-finite forces; stop with a diagnosable error instead
	// of silently filling the trajectory with NaNs.
	if math.IsNaN(res.EmbedEnergy) || math.IsInf(res.EmbedEnergy, 0) {
		return fmt.Errorf("md: non-finite embedding energy at step %d (unstable integration?)", s.step)
	}
	for i, f := range s.Sys.Force {
		if !f.IsFinite() {
			return fmt.Errorf("md: non-finite force on atom %d at step %d (dt too large or atoms overlapping)", i, s.step)
		}
	}
	s.embedEnergy = res.EmbedEnergy
	return nil
}

// ErrCanceled is the errors.Is sentinel for a run stopped by context
// cancellation. Every cancellation error returned by StepCtx,
// MinimizeCtx and the supervisors wraps both ErrCanceled and the
// context's own error (context.Canceled or context.DeadlineExceeded),
// so callers can distinguish an intentional stop from a physics fault
// with errors.Is(err, ErrCanceled). A canceled run always stops at a
// step boundary: positions, velocities and forces are those of the last
// completed step, so the state remains checkpointable.
var ErrCanceled = errors.New("run canceled")

// cancelError wraps the sentinel and the context cause with the step at
// which the run stopped.
func cancelError(step int, cause error) error {
	return fmt.Errorf("md: %w at step %d: %w", ErrCanceled, step, cause)
}

// Step advances n velocity-Verlet steps.
func (s *Simulator) Step(n int) error { return s.StepCtx(context.Background(), n) }

// StepCtx advances up to n velocity-Verlet steps, checking ctx at every
// step boundary: a canceled context stops the run before the next step
// starts and returns an error wrapping ErrCanceled, with the system
// left in the consistent state of the last completed step.
func (s *Simulator) StepCtx(ctx context.Context, n int) error {
	if s.closed {
		return errors.New("md: simulator is closed")
	}
	dt := s.cfg.Dt
	// An atom moving a substantial fraction of the cell in one step has
	// outrun the minimum-image convention: the integration has blown up
	// (timestep too large for the current temperature).
	maxStep := s.Sys.Box.Lengths().MinComponent() / 4
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return cancelError(s.step, err)
		}
		for i := range s.Sys.Pos {
			s.Sys.Vel[i] = s.Sys.Vel[i].AddScaled(0.5*dt/s.Sys.MassOf(i), s.Sys.Force[i])
			move := s.Sys.Vel[i].Scale(dt)
			if !move.IsFinite() || move.Norm() > maxStep {
				return fmt.Errorf("md: atom %d moved %g Å in one step at step %d — unstable integration (reduce dt)",
					i, move.Norm(), s.step)
			}
			s.Sys.Pos[i] = s.Sys.Box.Wrap(s.Sys.Pos[i].Add(move))
		}
		if s.needsRebuild() {
			if err := s.rebuild(); err != nil {
				return fmt.Errorf("md: step %d: %w", s.step, err)
			}
		}
		if err := s.computeForces(); err != nil {
			return fmt.Errorf("md: step %d: %w", s.step, err)
		}
		for i := range s.Sys.Vel {
			s.Sys.Vel[i] = s.Sys.Vel[i].AddScaled(0.5*dt/s.Sys.MassOf(i), s.Sys.Force[i])
		}
		if th := s.cfg.Thermostat; th != nil {
			th.Apply(s.Sys, dt)
		}
		s.step++
	}
	return nil
}

// Rebuild forces a neighbor-list/decomposition rebuild and a force
// recomputation from the current positions. Checkpoint writers call it
// right after serializing state: a run resumed from the checkpoint
// rebuilds everything from scratch, so forcing the continuing run
// through the same rebuild makes the two trajectories bit-identical
// from the checkpoint on (the summation order of the force loops is a
// function of the neighbor list, which is a deterministic function of
// the positions it was built from).
func (s *Simulator) Rebuild() error {
	if s.closed {
		return errors.New("md: simulator is closed")
	}
	if err := s.rebuild(); err != nil {
		return err
	}
	return s.computeForces()
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// PotentialEnergy evaluates the full EAM energy at the current
// positions (extra sweeps; not part of the timed force path).
func (s *Simulator) PotentialEnergy() float64 {
	total, err := s.eng.PotentialEnergy(s.red, s.Sys.Pos)
	if err != nil {
		// The engine was validated at construction; an error here means
		// the system was mutated inconsistently — surface loudly.
		//lint:ignore no-panic invariant violation after construction-time validation, not a recoverable condition
		panic(err)
	}
	return total
}

// TotalEnergy returns KE + PE.
func (s *Simulator) TotalEnergy() float64 {
	return s.Sys.KineticEnergy() + s.PotentialEnergy()
}

// EmbedEnergy returns Σ F(ρ) from the latest force evaluation.
func (s *Simulator) EmbedEnergy() float64 { return s.embedEnergy }

// StepCount returns the number of completed steps.
func (s *Simulator) StepCount() int { return s.step }

// Rebuilds returns how many times the neighbor list was (re)built.
func (s *Simulator) Rebuilds() int { return s.rebuilds }

// Telemetry returns the recorder the simulator was configured with (nil
// when telemetry is disabled).
func (s *Simulator) Telemetry() *telemetry.Recorder { return s.cfg.Telemetry }

// ForceTime returns the accumulated wall time of the density+force
// phases — the paper's measured quantity.
func (s *Simulator) ForceTime() time.Duration { return s.forceTime }

// ResetForceTime zeroes the accumulated force-phase timer (used after
// warmup, so measurements exclude first-touch effects).
func (s *Simulator) ResetForceTime() { s.forceTime = 0 }

// List exposes the current neighbor list (read-only use).
func (s *Simulator) List() *neighbor.List { return s.list }

// Decomposition exposes the spatial decomposition of the SDC and
// tasked strategies (nil for the others).
func (s *Simulator) Decomposition() *core.Decomposition { return s.dec }

// Reducer exposes the active reducer.
func (s *Simulator) Reducer() strategy.Reducer { return s.red }

// ApplyStrain deforms the system homogeneously and rebuilds the
// spatial structures (box geometry changed, so the old decomposition is
// discarded).
func (s *Simulator) ApplyStrain(eps vec.Vec3) error {
	s.Sys.ApplyStrain(eps)
	s.eng.SetBox(s.Sys.Box)
	s.dec = nil
	if err := s.rebuild(); err != nil {
		return err
	}
	return s.computeForces()
}

// Close releases the worker pool. The simulator must not be used
// afterwards.
func (s *Simulator) Close() {
	s.closed = true
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
}
