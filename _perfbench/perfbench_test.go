package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestScheduleDeterministic: one seed gives one serve-mix arrival
// schedule, with the same requests per class and per tenant; another
// seed gives another schedule and other per-tenant counts.
func TestScheduleDeterministic(t *testing.T) {
	const n = 340
	a, b := makeSchedule(1, n), makeSchedule(1, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 gave two different schedules")
	}
	ca, ta := a.counts()
	cb, tb := b.counts()
	if ca != cb || !slices.Equal(ta, tb) {
		t.Fatalf("counts differ for one seed: %v %v vs %v %v", ca, ta, cb, tb)
	}
	c := makeSchedule(2, n)
	if reflect.DeepEqual(a.Arrivals, c.Arrivals) {
		t.Fatal("seeds 1 and 2 gave the same schedule")
	}
	_, tc := c.counts()
	if slices.Equal(ta, tc) {
		t.Fatalf("per-tenant counts %v did not change with the seed", ta)
	}
	for i := 0; i < n; i++ {
		if a.spec(i) != b.spec(i) {
			t.Fatalf("arrival %d: specs differ for one seed", i)
		}
	}
}

// TestScheduleShape checks the invariants the serve-mix checks rely
// on: the class counts are the fixed shares, every repeat names an
// earlier fresh arrival, every fresh and store spec is distinct, and
// the arrival times increase.
func TestScheduleShape(t *testing.T) {
	const n = 340
	s := makeSchedule(7, n)
	cls, _ := s.counts()
	if cls[classFresh] != n/2 || cls[classStore] != n/10 || cls[classRepeat] != n-n/2-n/10 {
		t.Fatalf("class counts %v", cls)
	}
	if s.Arrivals[0].Class != classFresh {
		t.Fatal("first arrival is not fresh")
	}
	seen := map[int64]bool{}
	for i, a := range s.Arrivals {
		if i > 0 && a.At <= s.Arrivals[i-1].At {
			t.Fatalf("arrival %d not after %d", i, i-1)
		}
		switch a.Class {
		case classRepeat:
			if a.Spec >= i || s.Arrivals[a.Spec].Class != classFresh {
				t.Fatalf("repeat %d names %d, not an earlier fresh arrival", i, a.Spec)
			}
		default:
			seed := s.spec(i).Seed
			if seen[seed] {
				t.Fatalf("spec seed %d used twice", seed)
			}
			seen[seed] = true
		}
	}
	if got := len(s.storeSpecs()); got != s.Stores {
		t.Fatalf("%d store specs for %d store arrivals", got, s.Stores)
	}
}

// TestMDCountsRepeat: md.rebuilds and neighbor.pairs are exact for a
// seed and change with it (md-rebuild, short horizon).
func TestMDCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a 3 456-atom simulation")
	}
	const horizon = 40
	count := func(seed int64) rebuildCounter {
		sim, err := mdRebuild.newSim(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		c := rebuildCounter{horizon: horizon}
		for k := 0; k < horizon; k++ {
			_, rebuilt, err := step(sim)
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt {
				c.observe(k, sim.List().Pairs())
			}
		}
		return c
	}
	a, b, c := count(1), count(1), count(2)
	if a != b {
		t.Fatalf("seed 1 counted %+v then %+v", a, b)
	}
	if a.rebuilds == 0 {
		t.Fatal("no rebuild within the horizon")
	}
	if a == c {
		t.Fatalf("seeds 1 and 2 both counted %+v", a)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if tl := tailOf(xs); tl.Label != "p90" || tl.N != 100 {
		t.Fatalf("100 samples: %+v", tl)
	}
	if tl := tailOf(xs[:39]); tl.Label != "max" || tl.Value != 39 {
		t.Fatalf("39 samples: %+v", tl)
	}
	if tl := tailOf(append(xs, xs...)); tl.Label != "p90" {
		t.Fatalf("200 samples: %+v", tl)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "req", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	for _, st := range selfTimes(spans) {
		if st.Name == "req" && st.SelfMS*1e6 != 100-50-10 {
			t.Fatalf("req self time %v ns, want 40", st.SelfMS*1e6)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string { return slices.Sorted(slices.Values(xs)) }
	if got, want := names(spec.Workloads), sortedKeys(workloads); !slices.Equal(got, want) {
		t.Errorf("workloads %v, program has %v", got, want)
	}
	if got, want := names(spec.EndToEnd), sorted(endToEnd); !slices.Equal(got, want) {
		t.Errorf("end_to_end %v, program has %v", got, want)
	}
	if got, want := names(spec.PerLayer), sorted(perLayer); !slices.Equal(got, want) {
		t.Errorf("per_layer %v, program has %v", got, want)
	}
}

// TestYardstickFixed: the yardstick depends only on its arguments. Two
// instances of one shape list the same pairs and compute the same
// checksum on every pass, whatever the thread count; the host-speed
// adjustment scales times and rates in opposite directions.
func TestYardstickFixed(t *testing.T) {
	a, err := newYardstick(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newYardstick(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.pi, b.pi) || !slices.Equal(a.pj, b.pj) || a.pairs() != 2*len(a.pi) {
		t.Fatalf("pair lists differ: %d vs %d pairs", len(a.pi), len(b.pi))
	}
	// bcc within 4.7 Å: 8 + 6 + 12 neighbours, 13 pairs per atom, give
	// or take the jitter at the 4.75 Å shell.
	if perAtom := float64(len(a.pi)) / float64(len(a.x)); perAtom < 13 || perAtom > 15 {
		t.Fatalf("%.2f pairs per atom", perAtom)
	}
	var g gauge
	for range 3 {
		g.measure(a)
	}
	if g.Mismatch != 0 || g.Checksum == 0 {
		t.Fatalf("checksums differ between passes (%d) or vanish (%v)", g.Mismatch, g.Checksum)
	}
	_, cb := b.timedPass()
	if rel := math.Abs(cb-g.Checksum) / g.Checksum; rel > 1e-12 {
		t.Fatalf("one and two threads disagree: relative %g", rel)
	}
	if _, err := newYardstick(4, 1); err == nil {
		t.Fatal("4 cells accepted: the 5³ search would count images twice")
	}

	var out outcome
	report(&out, 0.5, map[string]float64{
		"atom_steps_per_s": 100, "job_latency_ms_p50": 10, "cpu_ms_per_job": 10, "setup_s": 1})
	want := map[string]float64{"atom_steps_per_s": 200, "job_latency_ms_p50": 5, "cpu_ms_per_job": 5, "setup_s": 0.5}
	for k, v := range want {
		if got := out.metrics[k]; got.Value != v || got.Unit != timeUnits[k] {
			t.Errorf("%s: got %+v, want %v", k, got, v)
		}
	}
}
