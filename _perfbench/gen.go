package main

import (
	"math"
	"math/rand"

	"sdcmd/internal/serve"
)

// class is the kind of work a serve-mix request asks for.
type class int

const (
	// classFresh is a spec never seen before: a full job.
	classFresh class = iota
	// classRepeat repeats a recent in-run fresh spec: served from the
	// memory cache, or coalesced onto the job still in flight.
	classRepeat
	// classStore repeats a spec run during set-up, before the restart:
	// served from the durable store.
	classStore
)

var classNames = [...]string{"fresh", "repeat", "store"}

func (c class) String() string { return classNames[c] }

// The traffic mix of serve-mix.
const (
	freshShare = 0.5
	storeShare = 0.1 // the remaining 0.4 are in-run repeats
	// repeatWindow is how many of the latest fresh arrivals a repeat
	// chooses from; the latest few are often still in flight
	// (coalesced), older ones are done (memory hits).
	repeatWindow = 16
	// nominalRate is the total request rate, in requests per second,
	// that sizes a run: --seconds × nominalRate arrivals. The time scale
	// itself comes from the measured capacity (see runServe).
	nominalRate = 10
)

var tenants = []serve.Tenant{
	{Name: "alpha", Key: "key-alpha", Weight: 3},
	{Name: "beta", Key: "key-beta", Weight: 1},
}

// arrival is one scheduled request.
type arrival struct {
	// At is the send time in units of the mean inter-arrival gap.
	At     float64 `json:"at"`
	Class  class   `json:"class"`
	Tenant int     `json:"tenant"`
	// Spec indexes the fresh specs (fresh), the store specs (store), or
	// the arrival being repeated (repeat).
	Spec int `json:"spec"`
}

// schedule is a seeded open-loop arrival sequence: Poisson arrivals
// (exponential gaps of mean 1) and a tenant drawn per request. The
// class counts are fixed shares of the requests, in a seeded order
// that starts with a fresh job: a run's offered work and its set-up
// size then do not depend on the seed, only its timing and order do.
type schedule struct {
	Seed     int64
	Arrivals []arrival
	Fresh    int // distinct fresh specs
	Stores   int // distinct store specs (each requested exactly once)
}

func makeSchedule(seed int64, n int) schedule {
	rng := rand.New(rand.NewSource(seed))
	s := schedule{Seed: seed}
	nFresh := int(math.Round(freshShare * float64(n)))
	nStore := int(math.Round(storeShare * float64(n)))
	classes := make([]class, n)
	for i := range classes {
		switch {
		case i < nFresh:
			classes[i] = classFresh
		case i < nFresh+nStore:
			classes[i] = classStore
		default:
			classes[i] = classRepeat
		}
	}
	if n > 1 {
		rest := classes[1:]
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	}
	var recent []int
	t := 0.0
	for i, c := range classes {
		t += rng.ExpFloat64()
		a := arrival{At: t, Class: c, Tenant: rng.Intn(len(tenants))}
		switch c {
		case classFresh:
			a.Spec = s.Fresh
			s.Fresh++
			recent = append(recent, i)
			if len(recent) > repeatWindow {
				recent = recent[1:]
			}
		case classStore:
			a.Spec = s.Stores
			s.Stores++
		case classRepeat:
			a.Spec = recent[rng.Intn(len(recent))]
		}
		s.Arrivals = append(s.Arrivals, a)
	}
	return s
}

// specSeed gives every fresh and store spec of a run its own seed, so
// no two distinct specs share a content hash.
func specSeed(runSeed int64, c class, k int) int64 {
	return runSeed*1_000_000 + int64(c)*100_000 + int64(k) + 1
}

// spec is the JobSpec arrival i submits.
func (s schedule) spec(i int) serve.JobSpec {
	a := s.Arrivals[i]
	switch a.Class {
	case classRepeat:
		return s.spec(a.Spec)
	default:
		return freshSpec(specSeed(s.Seed, a.Class, a.Spec))
	}
}

// storeSpecs are the specs set-up runs before the restart.
func (s schedule) storeSpecs() []serve.JobSpec {
	out := make([]serve.JobSpec, s.Stores)
	for k := range out {
		out[k] = freshSpec(specSeed(s.Seed, classStore, k))
	}
	return out
}

// counts tallies requests per class and per tenant.
func (s schedule) counts() (perClass [3]int, perTenant []int) {
	perTenant = make([]int, len(tenants))
	for _, a := range s.Arrivals {
		perClass[a.Class]++
		perTenant[a.Tenant]++
	}
	return perClass, perTenant
}
