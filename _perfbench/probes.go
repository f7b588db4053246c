package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sdcmd/internal/core"
	"sdcmd/internal/guard"
	"sdcmd/internal/lattice"
	"sdcmd/internal/md"
	"sdcmd/internal/potential"
	"sdcmd/internal/serve"
	"sdcmd/internal/store"
	"sdcmd/internal/strategy"
	"sdcmd/internal/telemetry"
	"sdcmd/internal/xyz"
)

// The one shape of every serve-mix fresh job: 1 024 atoms (2·8³),
// serial, freshSteps steps at 300 K. Specs differ only by seed.
const (
	freshCells = 8
	freshSteps = 25
	freshTemp  = 300
	// checkEvery is the scheduler's default guard chunk (serve.Options).
	checkEvery = 50
	// probeSeed seeds the fixed spec the guard and store probes use.
	probeSeed = 7
	probeReps = 5
)

func freshSpec(seed int64) serve.JobSpec {
	return serve.JobSpec{Cells: freshCells, Temperature: freshTemp, Seed: seed,
		Strategy: "serial", Threads: 1, Steps: freshSteps}
}

// specSim builds the system and md.Config a serve job with spec runs,
// without the service: bcc Fe, Maxwell velocities from the spec seed,
// Finnis–Sinclair EAM, serial strategy, default skin and timestep.
func specSim(sp serve.JobSpec, rec *telemetry.Recorder) (*md.System, md.Config, error) {
	lat, err := lattice.Build(lattice.BCC, sp.Cells, sp.Cells, sp.Cells, lattice.FeLatticeConstant)
	if err != nil {
		return nil, md.Config{}, err
	}
	sys := md.FromLattice(lat)
	if err := sys.InitVelocities(sp.Temperature, sp.Seed); err != nil {
		return nil, md.Config{}, err
	}
	pot, err := potential.NewFeEAM(potential.DefaultFeParams())
	if err != nil {
		return nil, md.Config{}, err
	}
	cfg := md.Config{Pot: pot, Strategy: strategy.Serial, Threads: 1, Dim: core.Dim2,
		Skin: 0.5, Dt: 1e-3, Telemetry: rec}
	return sys, cfg, nil
}

// directResult runs spec on a bare md.Simulator and returns the result
// the service should report for it, the per-step wall times, and the
// recorder's phase totals.
func directResult(sp serve.JobSpec, rec *telemetry.Recorder) (serve.Result, stepTimes, error) {
	var st stepTimes
	sys, cfg, err := specSim(sp, rec)
	if err != nil {
		return serve.Result{}, st, err
	}
	sim, err := md.NewSimulator(sys, cfg)
	if err != nil {
		return serve.Result{}, st, err
	}
	defer sim.Close()
	for k := 0; k < sp.Steps; k++ {
		d, rebuilt, err := step(sim)
		if err != nil {
			return serve.Result{}, st, err
		}
		st.add(d, rebuilt)
	}
	return serve.Result{
		Steps:           sim.StepCount(),
		PotentialEnergy: sim.PotentialEnergy(),
		KineticEnergy:   sys.KineticEnergy(),
		TotalEnergy:     sim.TotalEnergy(),
		Temperature:     sys.Temperature(),
	}, st, nil
}

// sharedProbes measures the layers every workload reports the same
// way: the guard's overhead on one fresh serve-mix spec, and store
// Put/Get on entries of a serve-mix job's size.
func sharedProbes(out *outcome, tr *Tracer) error {
	if err := guardProbe(out, tr); err != nil {
		return fmt.Errorf("guard probe: %w", err)
	}
	if err := storeProbe(out, tr); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	return nil
}

// guardProbe runs one fresh spec through guard.Supervisor.RunCtx and
// through bare md.Simulator.StepCtx, alternately, and reports the
// median ratio minus one. Construction is outside the timing.
func guardProbe(out *outcome, tr *Tracer) error {
	sp := freshSpec(probeSeed)
	ctx := context.Background()
	var bare, guarded []float64
	for i := 0; i < probeReps; i++ {
		req := strconv.Itoa(i)
		sys, cfg, err := specSim(sp, nil)
		if err != nil {
			return err
		}
		sim, err := md.NewSimulator(sys, cfg)
		if err != nil {
			return err
		}
		s := tr.Start("md.run.bare", req, 0)
		t0 := time.Now()
		err = sim.StepCtx(ctx, sp.Steps)
		bare = append(bare, float64(time.Since(t0)))
		s.End(nil)
		sim.Close()
		if err != nil {
			return err
		}

		if sys, cfg, err = specSim(sp, nil); err != nil {
			return err
		}
		sup, err := guard.New(sys, cfg, guard.Policy{CheckEvery: checkEvery})
		if err != nil {
			return err
		}
		s = tr.Start("guard.run", req, 0)
		t0 = time.Now()
		err = sup.RunCtx(ctx, sp.Steps)
		guarded = append(guarded, float64(time.Since(t0)))
		s.End(nil)
		sup.Close()
		if err != nil {
			return err
		}
	}
	out.set("guard.overhead_frac", median(guarded)/median(bare)-1, "fraction")
	return nil
}

// storeProbe puts and gets entries shaped like a serve-mix job's (result,
// telemetry snapshot and final-state checkpoint artifact) on a scratch
// store, each call timed with a span.
func storeProbe(out *outcome, tr *Tracer) error {
	sp := freshSpec(probeSeed)
	rec := telemetry.NewRecorder()
	res, _, err := directResult(sp, rec)
	if err != nil {
		return err
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		return err
	}
	metJSON, err := json.Marshal(rec.Snapshot())
	if err != nil {
		return err
	}
	sys, _, err := specSim(sp, nil)
	if err != nil {
		return err
	}
	var ckpt bytes.Buffer
	if err := xyz.WriteCheckpoint(&ckpt, xyz.FromSystem(sys, "Fe", "", sp.Steps)); err != nil {
		return err
	}

	dir, err := scratchDir("store-probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st := store.Open(store.Options{Dir: dir, Logf: func(string, ...any) {}})
	entry := store.Entry{
		Meta:    store.Meta{Material: "eam-fs", Cells: sp.Cells, Strategy: sp.Strategy, Steps: sp.Steps},
		Result:  resJSON,
		Metrics: metJSON,
	}
	arts := map[string][]byte{"checkpoint": ckpt.Bytes()}
	var puts, gets []float64
	var keys []string
	for i := 0; i < 2*probeReps; i++ {
		sum := sha256.Sum256([]byte("probe-" + strconv.Itoa(i)))
		key := hex.EncodeToString(sum[:])
		keys = append(keys, key)
		s := tr.Start("store.put", key[:12], 0)
		t0 := time.Now()
		err := st.Put(key, entry, arts)
		puts = append(puts, ms(time.Since(t0)))
		s.End(nil)
		if err != nil {
			return err
		}
	}
	for _, key := range keys {
		s := tr.Start("store.get", key[:12], 0)
		t0 := time.Now()
		_, ok := st.Get(key)
		gets = append(gets, ms(time.Since(t0)))
		s.End(nil)
		if !ok {
			return fmt.Errorf("store probe: entry %s missing", key)
		}
	}
	if st.Degraded() {
		return fmt.Errorf("store probe: store degraded")
	}
	var bytes int64
	for _, c := range st.List(store.Filter{}) {
		bytes += c.Bytes
	}
	out.set("store.put_ms_p50", median(puts), "ms")
	out.set("store.get_ms_p50", median(gets), "ms")
	out.set("store.entry_kb", float64(bytes)/float64(len(keys))/1024, "KB")
	return nil
}

// scratchDir makes a fresh directory under the run's output directory.
func scratchDir(name string) (string, error) {
	base := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}
