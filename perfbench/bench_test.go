package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func span(id, parent int, start, end int64) Span {
	return Span{ID: id, Parent: parent, Trace: "t", Name: "s", Start: start, End: end}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []Span{
		span(1, 0, 0, 100),
		span(2, 1, 10, 40),  // overlaps 3
		span(3, 1, 30, 60),  // overlaps 2
		span(4, 1, 50, 55),  // inside 3
		span(5, 1, 90, 130), // reaches past the parent's end
		span(6, 3, 30, 35),  // grandchild: counts against 3 only
	}
	self := SelfTimes(spans)
	// Children of 1 cover [10,60] ∪ [90,100] = 60 of its 100.
	if self[1] != 40 {
		t.Errorf("self(1) = %d, want 40", self[1])
	}
	if self[3] != 25 {
		t.Errorf("self(3) = %d, want 25", self[3])
	}
	if self[2] != 30 || self[4] != 5 || self[6] != 5 {
		t.Errorf("leaf self times = %d %d %d, want their durations", self[2], self[4], self[6])
	}
}

func TestSelfTimeDisjointAndNestedChildren(t *testing.T) {
	cases := []struct {
		children []Span
		want     int64
	}{
		{nil, 100},
		{[]Span{span(2, 1, 0, 100)}, 0},
		{[]Span{span(2, 1, 10, 20), span(3, 1, 30, 40)}, 80},
		{[]Span{span(2, 1, 10, 90), span(3, 1, 20, 30)}, 20},
		{[]Span{span(2, 1, -50, 10)}, 90},
	}
	for i, c := range cases {
		self := SelfTimes(append([]Span{span(1, 0, 0, 100)}, c.children...))
		if self[1] != c.want {
			t.Errorf("case %d: self = %d, want %d", i, self[1], c.want)
		}
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *Recorder
	if id := r.Add("t", "x", 0, time.Now(), time.Now()); id != 0 {
		t.Fatalf("nil recorder returned id %d", id)
	}
	if s := r.Spans(); s != nil {
		t.Fatalf("nil recorder returned spans %v", s)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || p != c.wantP {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", c.n, p, ok, c.wantP, c.ok)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%g = %g leaves %d samples beyond it", c.n, p, v, beyond)
			}
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %g", m)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 80); p != 4 {
		t.Errorf("p80 = %g, want 4", p)
	}
}

// sequence renders a client's first n operations as comparable strings.
func sequence(t *testing.T, seed int64, client, n int) []string {
	t.Helper()
	s, err := newStream(seed, client, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, n)
	for i := range out {
		o := s.at(i)
		b, err := o.body()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = o.kind + " " + string(b)
	}
	return out
}

func TestServeSequenceIsSeeded(t *testing.T) {
	a := sequence(t, 7, 0, 200)
	if b := sequence(t, 7, 0, 200); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request sequences")
	}
	if b := sequence(t, 8, 0, 200); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same request sequence")
	}
	if b := sequence(t, 7, 1, 200); reflect.DeepEqual(a, b) {
		t.Fatal("two clients of one run share a request sequence")
	}
}

func TestServeSequenceShape(t *testing.T) {
	s, err := newStream(3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	coldHashes := map[string]bool{}
	var colds []int
	for i := 0; i < 2000; i++ {
		o := s.at(i)
		kinds[o.kind]++
		switch o.kind {
		case opCold:
			h := o.spec.Hash()
			if coldHashes[h] {
				t.Fatalf("op %d: cold job repeats spec %s", i, h)
			}
			coldHashes[h] = true
			colds = append(colds, i)
		case opRepeat:
			recent := colds[max(0, len(colds)-repeatWindow(2)):]
			if s.at(o.target).kind != opCold || o.target < recent[0] {
				t.Fatalf("op %d: repeat targets op %d, outside the last %d cold jobs", i, o.target, repeatWindow(2))
			}
			if o.spec.Hash() != s.at(o.target).spec.Hash() {
				t.Fatalf("op %d: repeat spec differs from its target", i)
			}
		case opSweep:
			if err := o.sweep.Validate(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	// 2000 operations are exactly 100 kind blocks.
	if kinds[opCold] != 1100 || kinds[opRepeat] != 700 || kinds[opSweep] != 200 {
		t.Fatalf("kind counts %v, want 1100/700/200", kinds)
	}
	// Every block of classCycle cold jobs meets the class allocation.
	classes := map[string]int{}
	for i, n := 0, 0; n < classCycle; i++ {
		if o := s.at(i); o.kind == opCold {
			classes[o.class]++
			n++
		}
	}
	for i, n := range s.classes {
		if got := classes[s.mix[i].Name]; got != n {
			t.Errorf("class %s: %d cold jobs in the first block, want %d", s.mix[i].Name, got, n)
		}
	}
	if s.at(0).kind == opRepeat {
		t.Fatal("a stream opens with a repeat")
	}
}

// TestRepeatWindowFitsCache checks that, for any client count, the cache
// entries all clients add while one client runs a window of cold jobs and
// their share of sweep points stay under half the cache.
func TestRepeatWindowFitsCache(t *testing.T) {
	colds, sweeps := 0, 0
	for _, k := range kindCycle {
		switch k {
		case opCold:
			colds++
		case opSweep:
			sweeps++
		}
	}
	perCold := 1 + 4*float64(sweeps)/float64(colds) // cold result + sweep points
	for _, clients := range []int{1, 2, 3, 4, 8, 16, 64} {
		w := repeatWindow(clients)
		if w < 1 {
			t.Fatalf("%d clients: window %d", clients, w)
		}
		if clients <= cacheCapacity/4 {
			if entries := perCold * float64(w*clients); entries > cacheCapacity/2 {
				t.Errorf("%d clients: window %d spans ~%.0f cache entries of %d", clients, w, entries, cacheCapacity)
			}
		}
	}
}

func TestAllocateMatchesWeights(t *testing.T) {
	s, err := newStream(1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, n := range s.classes {
		total += n
		if want := s.mix[i].Weight * classCycle; float64(n) < want-1 || float64(n) > want+1 {
			t.Errorf("class %s: %d slots for weight %g", s.mix[i].Name, n, s.mix[i].Weight)
		}
	}
	if total != classCycle {
		t.Fatalf("allocated %d slots, want %d", total, classCycle)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the runs print in step
// with the contract at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, want []struct{ Name, Unit string }, got []metricDef) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(want), len(got))
		}
		for i, w := range want {
			if w.Name != got[i].name || w.Unit != got[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, w.Name, w.Unit, got[i].name, got[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}
