package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestHistogramObserveN pins that ObserveN(v, n) records what n calls
// of Observe(v) record, and nothing for n <= 0.
func TestHistogramObserveN(t *testing.T) {
	var one, bulk Histogram
	for _, o := range []struct{ v, n int64 }{{3, 4}, {0, 2}, {9, 0}, {17, 1}, {5, -1}, {-2, 3}} {
		for i := int64(0); i < o.n; i++ {
			one.Observe(o.v)
		}
		bulk.ObserveN(o.v, o.n)
	}
	if got, want := bulk.Stat(), one.Stat(); got != want {
		t.Fatalf("ObserveN stat %+v, want %+v", got, want)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x.count") != c {
		t.Fatal("same name must return the same handle")
	}

	g := r.Gauge("x.hwm")
	g.Observe(3)
	g.Observe(9)
	g.Observe(7)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}

	h := r.Histogram("x.sizes")
	for _, v := range []int64{1, 2, 3, 10} {
		h.Observe(v)
	}
	st := h.Stat()
	if st.Count != 4 || st.Sum != 16 || st.Min != 1 || st.Max != 10 {
		t.Fatalf("hist = %+v", st)
	}
	if st.Mean() != 4 {
		t.Fatalf("mean = %v", st.Mean())
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c")
	c.Inc()
	c.Add(3)
	g.Observe(5)
	h.Observe(7)
	r.Add("d", 1)
	if c.Value() != 0 || g.Value() != 0 || h.Stat().Count != 0 {
		t.Fatal("nil handles must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || snap.String() != "" {
		t.Fatalf("nil registry snapshot = %+v", snap)
	}
}

func TestSnapshotDeterministicRendering(t *testing.T) {
	r := NewRegistry()
	r.Add("b.second", 2)
	r.Add("a.first", 1)
	r.Gauge("c.third").Observe(3)
	r.Histogram("d.fourth").Observe(4)
	s := r.Snapshot().String()
	if !strings.Contains(s, "a.first") || !strings.Contains(s, "d.fourth") {
		t.Fatalf("snapshot missing entries:\n%s", s)
	}
	if strings.Index(s, "a.first") > strings.Index(s, "b.second") {
		t.Fatalf("counters not sorted:\n%s", s)
	}
	if s != r.Snapshot().String() {
		t.Fatal("repeated snapshots must render identically")
	}
}

func TestSnapshotEqual(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	for _, r := range []*Registry{a, b} {
		r.Add("n", 2)
		r.Gauge("g").Observe(7)
		r.Histogram("h").Observe(1)
	}
	if !a.Snapshot().Equal(b.Snapshot()) {
		t.Fatal("identical registries must snapshot equal")
	}
	b.Add("n", 1)
	if a.Snapshot().Equal(b.Snapshot()) {
		t.Fatal("diverged registries must not snapshot equal")
	}
}

func TestConcurrentHandles(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Gauge("peak").Observe(int64(j))
				r.Histogram("dist").Observe(int64(j % 16))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Get("shared") != 8000 {
		t.Fatalf("counter = %d, want 8000", s.Get("shared"))
	}
	if s.Gauges["peak"] != 999 {
		t.Fatalf("gauge = %d, want 999", s.Gauges["peak"])
	}
	if s.Histograms["dist"].Count != 8000 {
		t.Fatalf("hist count = %d, want 8000", s.Histograms["dist"].Count)
	}
}
