package main

// The serve-mix request sequence. Each client owns one seeded stream of
// operations, so every run with a seed serves the same jobs in the same
// per-client order, and a repeat always names a spec its own client has
// already seen settle, recently enough that the daemon's result cache
// still holds it (see repeatWindow). The serve check counts a repeat that
// misses the cache as a failure.
//
// Proportions are exact rather than sampled: every block of kindCycle
// operations holds the same number of each kind, and every block of
// classCycle cold jobs holds each serving-mix class in proportion to its
// weight, in a seeded order. Seeds then change which specs are served,
// not how much work the run is.
//
// The shares (kindCycle), the sweep shape (sweepOp) and the repeat window
// are assumptions, not measured traffic: nothing in the repository
// records how often vqed sees repeats or sweeps. They are chosen so that
// cold jobs, which cost milliseconds of engine work, take most of a run,
// while cache hits and sweep families still give each run dozens of
// samples for their medians.

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"

	"repro/internal/runspec"
)

// Operation kinds.
const (
	opCold   = "cold"   // a fresh single job: POST /v1/jobs, wait for its terminal event
	opRepeat = "repeat" // an earlier spec again: answered from the result cache
	opSweep  = "sweep"  // a small H2 bond-length family: POST /v1/sweeps
)

// kindCycle is one block of operations: 55% cold, 35% repeats, 10% sweeps
// (an assumed mix; see the file comment).
var kindCycle = append(append(repeatKind(opCold, 11), repeatKind(opRepeat, 7)...), repeatKind(opSweep, 2)...)

const (
	// classCycle is the number of cold jobs over which the serving mix's
	// class weights are met exactly.
	classCycle = 100
	// cacheCapacity is the size of the daemon's FIFO result cache: vqed's
	// -cache default, which server.New also gives a zero
	// Config.CacheCapacity. It sizes repeatWindow only; if the default
	// shrinks, repeats start to miss and the serve check fails.
	cacheCapacity = 256
)

// repeatWindow bounds how far back a repeat may reach, in its client's
// cold jobs, so that its target is still cached. While a client runs w
// cold jobs it also runs about 0.73·w sweep points (two 4-point families
// per 11 cold jobs), and every client adds as many cache entries, so the
// window's cold jobs are about 1.73·w·clients entries old. A quarter of
// the cache per client keeps that under half the cache, with room left
// for clients that run ahead of the others.
func repeatWindow(clients int) int {
	return max(1, cacheCapacity/(4*clients))
}

func repeatKind(k string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = k
	}
	return out
}

// op is one request of the sequence.
type op struct {
	kind  string
	class string // serving-mix class of a cold job
	spec  *runspec.RunSpec
	sweep *runspec.SweepSpec
	// target is the stream index of the cold op a repeat resubmits.
	target int
}

// body returns the JSON document the op POSTs.
func (o op) body() ([]byte, error) {
	if o.sweep != nil {
		return json.Marshal(o.sweep)
	}
	return json.Marshal(o.spec)
}

// stream generates one client's operations.
type stream struct {
	r       *rand.Rand
	mix     []runspec.MixEntry
	classes []int    // class-cycle allocation: how many cold jobs per mix entry
	kinds   []string // remaining kinds of the current block
	deck    []int    // remaining mix entries of the current class block
	ops     []op
	colds   []int // indices of cold ops, for repeats
	window  int   // repeatWindow for the run's client count
}

// newStream seeds client's stream, one of clients, from the workload seed.
func newStream(seed int64, client, clients int) (*stream, error) {
	mix, err := runspec.MixByName(runspec.MixServing)
	if err != nil {
		return nil, err
	}
	s := &stream{r: rand.New(rand.NewSource(seed*7919 + int64(client) + 1)), mix: mix.Entries(),
		window: repeatWindow(clients)}
	s.classes = allocate(s.mix, classCycle)
	return s, nil
}

// allocate splits n slots over the entries in proportion to their weights
// by largest remainder.
func allocate(mix []runspec.MixEntry, n int) []int {
	counts := make([]int, len(mix))
	order := make([]int, len(mix))
	left := n
	for i, e := range mix {
		counts[i] = int(math.Floor(e.Weight * float64(n)))
		left -= counts[i]
		order[i] = i
	}
	frac := func(i int) float64 { return mix[i].Weight*float64(n) - float64(counts[i]) }
	sort.SliceStable(order, func(a, b int) bool { return frac(order[a]) > frac(order[b]) })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// at returns operation i, generating the stream up to it.
func (s *stream) at(i int) op {
	for len(s.ops) <= i {
		s.ops = append(s.ops, s.next())
	}
	return s.ops[i]
}

func (s *stream) next() op {
	if len(s.kinds) == 0 {
		s.kinds = append([]string(nil), kindCycle...)
		s.r.Shuffle(len(s.kinds), func(i, j int) { s.kinds[i], s.kinds[j] = s.kinds[j], s.kinds[i] })
	}
	if s.kinds[0] == opRepeat && len(s.colds) == 0 {
		// Nothing to repeat yet: swap in the block's first cold job.
		for i, k := range s.kinds {
			if k == opCold {
				s.kinds[0], s.kinds[i] = k, opRepeat
				break
			}
		}
	}
	kind := s.kinds[0]
	s.kinds = s.kinds[1:]
	switch kind {
	case opCold:
		s.colds = append(s.colds, len(s.ops))
		return s.cold()
	case opRepeat:
		recent := s.colds[max(0, len(s.colds)-s.window):]
		t := recent[s.r.Intn(len(recent))]
		return op{kind: opRepeat, class: s.ops[t].class, spec: s.ops[t].spec, target: t}
	default:
		return s.sweepOp()
	}
}

// cold takes the next serving-mix class from the shuffled class block and
// makes its spec fresh by drawing the continuous parameter: an H2 bond
// length, a Hubbard hopping amplitude, or a synthetic-integral seed.
func (s *stream) cold() op {
	if len(s.deck) == 0 {
		for i, n := range s.classes {
			for k := 0; k < n; k++ {
				s.deck = append(s.deck, i)
			}
		}
		s.r.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	e := s.mix[s.deck[0]]
	s.deck = s.deck[1:]
	spec := e.Spec
	switch spec.Molecule.Kind {
	case "h2", "h2-distance":
		spec.Molecule.Kind = "h2-distance"
		spec.Molecule.Distance = 0.5 + 1.5*s.r.Float64()
	case "hubbard":
		spec.Molecule.Hopping = 0.5 + s.r.Float64()
	case "synthetic":
		spec.Molecule.Seed = uint64(s.r.Int63())
	}
	return op{kind: opCold, class: e.Name, spec: &spec}
}

// sweepOp is a four-point H2 dissociation family starting at a fresh bond
// length.
func (s *stream) sweepOp() op {
	start := 0.6 + 0.8*s.r.Float64()
	vals := make([]float64, 4)
	for i := range vals {
		vals[i] = start + 0.05*float64(i)
	}
	return op{kind: opSweep, class: "h2-sweep", sweep: &runspec.SweepSpec{
		Base: runspec.RunSpec{Molecule: runspec.MoleculeSpec{Kind: "h2-distance", Distance: start}},
		Axis: runspec.SweepAxis{Param: runspec.AxisDistance, Values: vals},
	}}
}
