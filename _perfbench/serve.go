package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sdcmd/internal/lattice"
	"sdcmd/internal/neighbor"
	"sdcmd/internal/potential"
	"sdcmd/internal/serve"
	"sdcmd/internal/store"
	"sdcmd/internal/telemetry"
)

const (
	shards = 2
	// loadShare is the offered fresh-job load as a share of the two
	// shards' measured capacity: below the knee, so that most requests
	// find a shard (and a processor) free and the medians sit inside one
	// mode; see README.md for the measurements behind the choice.
	loadShare = 0.25
	// directSamples is how many fresh results are re-run on a bare
	// md.Simulator and compared.
	directSamples = 3
	// energyTol is the accepted relative difference between a served
	// fresh result and the direct run of its spec.
	energyTol = 1e-9
	// requestTimeout bounds any single request of the generator.
	requestTimeout = 60 * time.Second
	// generatorLead is how long after launching the generator process
	// its schedule starts.
	generatorLead = 300 * time.Millisecond
)

// serveNominal is the serial 1 024-atom yardstick's thread CPU ns per
// pair visit on the average processor of a quiet 2-vCPU host (see
// gaugeLoop and mdNominal).
const serveNominal = 23.0

// service is one in-process sdcserve: a durable store, the scheduler
// and its HTTP mux on a loopback listener that also speaks HTTP/2
// without TLS.
type service struct {
	dir    string
	sched  *serve.Scheduler
	http   *http.Server
	served chan error
	base   string
	client *client // set-up traffic and scrapes
}

func startService(dir string) (*service, error) {
	ts, err := serve.NewTenantSet(tenants)
	if err != nil {
		return nil, err
	}
	st := store.Open(store.Options{Dir: dir, Logf: func(string, ...any) {}})
	sched, err := serve.NewScheduler(serve.Options{
		MaxJobs: shards, CPU: runtime.NumCPU(), Store: st, Tenants: ts,
		// Admission never refuses in this workload: the offered load
		// stays below capacity, and a refusal would count as a failure.
		Queue: 1 << 16,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sched.Drain()
		return nil, err
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	s := &service{dir: dir, sched: sched, served: make(chan error, 1),
		http: &http.Server{Handler: serve.NewMux(sched), Protocols: &protos},
		base: "http://" + ln.Addr().String()}
	go func() { s.served <- s.http.Serve(ln) }()
	s.client = newClient(s.base)
	return s, nil
}

// stop closes the listener and drains the scheduler, waiting for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.client.close()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := s.sched.Drain(); derr != nil && err == nil {
		err = derr
	}
	return err
}

// runAll sends every spec at once (set-up traffic) and returns the
// results in order.
func (s *service) runAll(specs []serve.JobSpec) ([]serve.Result, error) {
	recs := make([]reqRecord, len(specs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, sp := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = s.client.do(tenants[i%len(tenants)].Key, sp, start, 0)
		}()
	}
	wg.Wait()
	res := make([]serve.Result, len(recs))
	for i, r := range recs {
		if r.Err != "" {
			return nil, errors.New(r.Err)
		}
		res[i] = r.Result
	}
	return res, nil
}

// generateLoad runs the plan in a generator process (this program with
// --generate) and returns its records and yardstick passes.
func generateLoad(p genPlan) ([]reqRecord, *gauge, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	in, err := json.Marshal(p)
	if err != nil {
		return nil, nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, "--generate")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// The generator must not outlive this process.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("generator: %w", err)
	}
	var res genOutput
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, nil, fmt.Errorf("generator output: %w", err)
	}
	if len(res.Records) != len(p.Requests) || res.Gauge == nil || len(res.Gauge.WallsNS) == 0 {
		passes := 0
		if res.Gauge != nil {
			passes = len(res.Gauge.WallsNS)
		}
		return nil, nil, fmt.Errorf("generator returned %d records for %d requests and %d yardstick passes",
			len(res.Records), len(p.Requests), passes)
	}
	return res.Records, res.Gauge, nil
}

// setUp is everything before the timed phase: store, scheduler and
// server; the set-up run of the store specs; then a restart of the
// scheduler over the same store directory, so those specs are served
// from disk. It returns the restarted service, the set-up results and
// their execution wall times.
func setUp(specs []serve.JobSpec) (*service, []serve.Result, []float64, error) {
	dir, err := scratchDir("serve")
	if err != nil {
		return nil, nil, nil, err
	}
	storeDir := filepath.Join(dir, "store")
	first, err := startService(storeDir)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := first.runAll(specs)
	if serr := first.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("set-up run: %w", err)
	}
	svc, err := startService(storeDir)
	if err != nil {
		return nil, nil, nil, err
	}
	svc.dir = dir
	walls := make([]float64, len(res))
	for i, r := range res {
		walls[i] = r.WallSeconds
	}
	return svc, res, walls, nil
}

func runServe(o options, tr *Tracer) (*outcome, error) {
	out := &outcome{}
	sch := makeSchedule(o.seed, int(math.Round(nominalRate*o.seconds)))
	storeSpecs := sch.storeSpecs()

	var setups, walls []float64
	var svc *service
	var storeResults []serve.Result
	for r := 0; r < setupReps; r++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
			_ = os.RemoveAll(svc.dir)
		}
		t0 := time.Now()
		s, res, w, err := setUp(storeSpecs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		svc, storeResults = s, res
		walls = append(walls, w...)
	}
	defer func() {
		_ = svc.stop()
		_ = os.RemoveAll(svc.dir)
	}()

	// Open-loop rate: loadShare of the shards' capacity for fresh jobs,
	// from the median execution time of the set-up jobs.
	capacity := shards / median(walls)
	rate := loadShare * capacity / freshShare // all requests per second
	perClass, perTenant := sch.counts()
	out.note("requests", fmt.Sprintf("fresh %d, repeat %d, store %d; tenant %s %d, %s %d",
		perClass[classFresh], perClass[classRepeat], perClass[classStore],
		tenants[0].Name, perTenant[0], tenants[1].Name, perTenant[1]))
	out.note("rate", fmt.Sprintf("%.2f requests/s (fresh %.2f/s = %.0f%% of %.2f jobs/s measured capacity), %d requests",
		rate, rate*freshShare, 100*loadShare, capacity, len(sch.Arrivals)))

	plan := genPlan{Base: svc.base}
	for i, a := range sch.Arrivals {
		plan.Requests = append(plan.Requests, genRequest{
			Due:  time.Duration(a.At / rate * float64(time.Second)),
			Key:  tenants[a.Tenant].Key,
			Spec: sch.spec(i),
		})
	}
	// The generator process needs a moment to start; the schedule
	// begins after it.
	start := time.Now().Add(generatorLead)
	plan.Start = start.UnixNano()
	c0 := svc.sched.Counters()
	cpu0 := cpuTime()
	recs, g, err := generateLoad(plan)
	if err != nil {
		return nil, err
	}
	cpu := cpuTime() - cpu0
	c1 := svc.sched.Counters()

	var fresh, hits, runWalls []float64
	var last time.Duration
	misrouted := 0 // fresh requests not admitted as new jobs, or repeats that were
	for i, r := range recs {
		out.attempted++
		if r.Err != "" {
			out.failed++
			if out.failed == 1 {
				out.check("requests", false, "first failure: %s", r.Err)
			}
			continue
		}
		last = max(last, r.Seen)
		if (r.Code == http.StatusCreated) != (sch.Arrivals[i].Class == classFresh) {
			misrouted++
		}
		if sch.Arrivals[i].Class == classFresh {
			fresh = append(fresh, ms(r.latency()))
			runWalls = append(runWalls, r.Result.WallSeconds)
		} else {
			hits = append(hits, ms(r.latency()))
		}
	}
	if len(fresh) == 0 || len(hits) == 0 {
		return nil, fmt.Errorf("no completed fresh jobs or hits (%d failed)", out.failed)
	}
	out.note("window", fmt.Sprintf("%.3f s, %d fresh, %d hits; %d requests served other than their class says",
		last.Seconds(), len(fresh), len(hits), misrouted))
	if err := checkServe(out, sch, recs, storeResults); err != nil {
		return nil, err
	}
	checkGauge(out, g)

	// The host speed is that of the average processor, in thread CPU
	// time (see gaugeLoop).
	speed := serveNominal / g.procCPUNSPerPair()
	out.note("yardstick", fmt.Sprintf(
		"%d passes of %d pairs: %.2f ns/pair thread CPU on the average processor (medians %s); nominal %.2f; host speed %.3f",
		len(g.WallsNS), g.Pairs, g.procCPUNSPerPair(), procMedians(g), serveNominal, speed))
	atomSteps := float64(2*freshCells*freshCells*freshCells) * freshSteps
	tl := tailOf(fresh)
	report(out, speed, map[string]float64{
		"setup_s":             median(setups),
		"atom_steps_per_s":    atomSteps / median(runWalls),
		"cpu_ms_per_job":      ms(cpu) / float64(len(fresh)),
		"job_latency_ms_p50":  median(fresh),
		"job_latency_ms_tail": tl.Value,
		"hit_latency_ms_p50":  median(hits),
	})
	out.note("job_latency_ms_tail", fmt.Sprintf("%s of %d fresh jobs", tl.Label, tl.N))
	if !o.trace {
		out.set("live_heap_mb", liveHeapMB(), "MB")
		return out, nil
	}
	if err := serveLayers(out, tr, svc, sch, recs, start, c0, c1); err != nil {
		return nil, err
	}
	out.spans = tr.Spans()
	return out, nil
}

// checkServe is the serve-mix correctness gate: every hit's energies
// are bit-identical to its fresh twin's, and a sample of fresh results
// matches a direct md.Simulator run of the same spec.
func checkServe(out *outcome, sch schedule, recs []reqRecord, storeResults []serve.Result) error {
	same := func(a, b serve.Result) bool {
		return a.Steps == b.Steps &&
			math.Float64bits(a.PotentialEnergy) == math.Float64bits(b.PotentialEnergy) &&
			math.Float64bits(a.KineticEnergy) == math.Float64bits(b.KineticEnergy) &&
			math.Float64bits(a.TotalEnergy) == math.Float64bits(b.TotalEnergy) &&
			math.Float64bits(a.Temperature) == math.Float64bits(b.Temperature)
	}
	compared, mismatched := 0, 0
	for i, a := range sch.Arrivals {
		r := recs[i]
		if r.Err != "" || a.Class == classFresh {
			continue
		}
		var twin serve.Result
		switch a.Class {
		case classRepeat:
			if recs[a.Spec].Err != "" {
				continue
			}
			twin = recs[a.Spec].Result
		case classStore:
			twin = storeResults[a.Spec]
		}
		compared++
		if !same(r.Result, twin) {
			mismatched++
		}
	}
	out.check("hits_bit_identical", mismatched == 0 && compared > 0, "%d of %d hits differ from their fresh twin", mismatched, compared)

	var freshIdx []int
	for i, a := range sch.Arrivals {
		if a.Class == classFresh && recs[i].Err == "" {
			freshIdx = append(freshIdx, i)
		}
	}
	worst := 0.0
	for k := 0; k < directSamples && len(freshIdx) > 0; k++ {
		i := freshIdx[k*(len(freshIdx)-1)/max(directSamples-1, 1)]
		want, _, err := directResult(sch.spec(i), nil)
		if err != nil {
			return fmt.Errorf("direct run: %w", err)
		}
		got := recs[i].Result
		for _, p := range [][2]float64{
			{got.PotentialEnergy, want.PotentialEnergy},
			{got.KineticEnergy, want.KineticEnergy},
			{got.TotalEnergy, want.TotalEnergy},
		} {
			worst = math.Max(worst, math.Abs(p[0]-p[1])/math.Max(math.Abs(p[1]), 1e-300))
		}
		if got.Steps != want.Steps {
			worst = math.Inf(1)
		}
	}
	out.check("fresh_vs_direct", worst <= energyTol, "max relative energy difference %.3g over %d samples (tol %.0e)",
		worst, min(directSamples, len(freshIdx)), energyTol)
	return nil
}

// serveLayers fills the traced run's per-layer metrics of serve-mix.
// The request spans are built from the timestamps the generator records
// in every run, so tracing adds no work to the timed phase.
func serveLayers(out *outcome, tr *Tracer, svc *service, sch schedule, recs []reqRecord,
	start time.Time, c0, c1 serve.Counters) error {
	var submit, qwait, run, late []float64
	repeats := 0
	for i, r := range recs {
		late = append(late, ms(r.Sent-r.Due))
		if r.Err != "" {
			continue
		}
		req := fmt.Sprintf("r%d/%s", i, sch.Arrivals[i].Class)
		root := tr.add("serve.request", req, 0, start, r.Due, r.Seen,
			map[string]float64{"latency_ms": ms(r.latency()), "late_ms": ms(r.Sent - r.Due)})
		tr.add("serve.submit", req, root, start, r.Sent, r.Queued, nil)
		if r.followed() {
			tr.add("serve.wait", req, root, start, r.Queued, r.Done, nil)
		}
		tr.add("serve.result", req, root, start, r.Done, r.Seen, nil)
		submit = append(submit, ms(r.Queued-r.Sent))
		if sch.Arrivals[i].Class != classFresh {
			repeats++
			continue
		}
		if r.followed() {
			qwait = append(qwait, ms(r.Running-r.Queued))
			run = append(run, ms(r.Done-r.Running))
		}
	}
	out.set("serve.submit_ms_p50", median(submit), "ms")
	qt := tailOf(qwait)
	out.set("serve.queue_wait_ms_p50", median(qwait), "ms")
	out.set("serve.queue_wait_ms_tail", qt.Value, "ms")
	out.note("serve.queue_wait_ms_tail", fmt.Sprintf("%s of %d fresh jobs", qt.Label, qt.N))
	out.set("serve.run_ms_p50", median(run), "ms")
	storeHits := float64(c1.StoreHits - c0.StoreHits)
	memHits := float64(c1.CacheHits-c0.CacheHits) - storeHits
	out.set("serve.cache_hit_frac", memHits/float64(repeats), "fraction")
	out.set("serve.store_hit_frac", storeHits/float64(repeats), "fraction")
	out.set("serve.coalesced_frac", float64(c1.Coalesced-c0.Coalesced)/float64(repeats), "fraction")
	out.set("serve.rejected_frac", float64(c1.Rejected-c0.Rejected+c1.QuotaRejected-c0.QuotaRejected)/float64(len(recs)), "fraction")
	out.set("serve.generator_late_ms_p99", quantile(late, 0.99), "ms")

	// Force phases of every in-run job, from the service's merged
	// telemetry, per pair of the one fresh shape.
	var m struct {
		Sim telemetry.Metrics `json:"sim"`
	}
	ctx := context.Background()
	if _, err := svc.client.call(ctx, http.MethodGet, "/metrics?format=json", tenants[0].Key, nil, &m); err != nil {
		return err
	}
	lat, err := lattice.Build(lattice.BCC, freshCells, freshCells, freshCells, lattice.FeLatticeConstant)
	if err != nil {
		return err
	}
	pot := potential.DefaultFe()
	builder := neighbor.Builder{Cutoff: pot.Cutoff(), Skin: 0.5, Half: true}
	var builds []float64
	pairs := 0
	for i := 0; i < probeReps; i++ {
		sp := tr.Start("neighbor.build", strconv.Itoa(i), 0)
		t0 := time.Now()
		l, err := builder.Build(lat.Box, lat.Pos)
		builds = append(builds, ms(time.Since(t0)))
		sp.End(nil)
		if err != nil {
			return err
		}
		pairs = l.Pairs()
	}
	calls := float64(m.Sim.Density.Calls)
	out.set("force.density_ns_per_pair", m.Sim.Density.Seconds*1e9/(calls*float64(pairs)), "ns")
	out.set("force.force_ns_per_pair", m.Sim.Force.Seconds*1e9/(calls*float64(pairs)), "ns")
	out.set("force.embed_ns_per_atom", m.Sim.Embed.Seconds*1e9/(calls*float64(len(lat.Pos))), "ns")
	out.set("neighbor.build_ms", median(builds), "ms")
	out.set("neighbor.ns_per_atom", median(builds)*1e6/float64(len(lat.Pos)), "ns")
	out.set("neighbor.pairs", float64(pairs), "count")

	// GET /metrics: the scrape cost grows with lifetime jobs.
	var scrapes []float64
	for i := 0; i < 3; i++ {
		sp := tr.Start("serve.metrics", strconv.Itoa(i), 0)
		t0 := time.Now()
		err := svc.scrape(ctx)
		scrapes = append(scrapes, ms(time.Since(t0)))
		sp.End(nil)
		if err != nil {
			return err
		}
	}
	out.set("serve.metrics_scrape_ms", median(scrapes), "ms")

	// One fresh spec on a bare simulator, step by step.
	rec := telemetry.NewRecorder()
	_, st, err := directResult(freshSpec(probeSeed), rec)
	if err != nil {
		return err
	}
	snap := rec.Snapshot()
	normal := durationsMS(st.normal)
	out.set("md.step_ms_p50", median(normal), "ms")
	out.set("md.rebuilds", float64(len(st.rebuild)), "count")
	if len(st.rebuild) > 0 {
		out.set("md.rebuild_step_ms_p50", median(durationsMS(st.rebuild)), "ms")
	}
	// Phase totals include the set-up compute; scale to the stepped
	// calls only.
	perCall := snap.PhaseSeconds() / float64(snap.Density.Calls)
	out.set("md.outside_force_frac", 1-perCall*1e3/median(normal), "fraction")

	if err := sharedProbes(out, tr); err != nil {
		return err
	}
	out.set("trace.overhead_frac", 0, "fraction")
	out.note("trace.overhead_frac", "0 by construction: request spans come from timestamps every run records")
	return nil
}

func (s *service) scrape(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	return nil
}

// procMedians lists each processor's median pass in ns per pair visit.
func procMedians(g *gauge) string {
	var b strings.Builder
	for p, cs := range g.ProcCPUNS {
		if p > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d: %.2f over %d", p, median(cs)/float64(g.Pairs), len(cs))
	}
	return b.String()
}
