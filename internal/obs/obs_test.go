package obs

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrency hammers one registry from many goroutines the way
// the toolchain does: parallel build-time class initialization incrementing
// shared counters, and the multi-threaded scheduler recording timeline
// events, gauges, spans, and histogram observations concurrently.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("clinit.runs")
			h := r.Histogram("sched.quantum", DurationBuckets())
			tl := r.Timeline("faults", "offset", "major")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				r.Counter("clinit.runs").Add(1) // racing re-registration
				r.Gauge("sched.threads").Set(float64(w))
				h.Observe(float64(i))
				tl.Record("sec", int64(i), int64(w))
				s := r.StartSpan("stage")
				s.End()
			}
		}(w)
	}
	wg.Wait()

	snap := r.Snapshot()
	if got := snap.Counter("clinit.runs"); got != 2*workers*perWorker {
		t.Errorf("counter = %d, want %d", got, 2*workers*perWorker)
	}
	tl := snap.Timeline("faults")
	if tl == nil || len(tl.Events) != workers*perWorker {
		t.Fatalf("timeline events = %v, want %d", tl, workers*perWorker)
	}
	for i := 1; i < len(tl.Events); i++ {
		if tl.Events[i].Seq <= tl.Events[i-1].Seq {
			t.Fatalf("timeline not in sequence order at %d: %d then %d", i, tl.Events[i-1].Seq, tl.Events[i].Seq)
		}
	}
	if len(snap.Spans) != workers*perWorker {
		t.Errorf("spans = %d, want %d", len(snap.Spans), workers*perWorker)
	}
	var histCount int64
	for _, h := range snap.Histograms {
		histCount += h.Count
	}
	if histCount != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", histCount, workers*perWorker)
	}
}

// TestHistogramBucketEdges pins the v <= bound bucket semantics at the
// edges of a fixed layout.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 100})
	for _, v := range []float64{-5, 0, 10} { // all <= 10
		h.Observe(v)
	}
	for _, v := range []float64{10.5, 100} { // (10, 100]
		h.Observe(v)
	}
	h.Observe(100.0001) // overflow
	h.Observe(1e12)     // overflow

	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(snap.Histograms))
	}
	hp := snap.Histograms[0]
	want := []int64{3, 2, 2}
	if !reflect.DeepEqual(hp.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", hp.Counts, want)
	}
	if hp.Count != 7 {
		t.Errorf("count = %d, want 7", hp.Count)
	}
	wantSum := -5 + 0 + 10 + 10.5 + 100 + 100.0001 + 1e12
	if hp.Sum != wantSum {
		t.Errorf("sum = %v, want %v", hp.Sum, wantSum)
	}
	// Re-registration keeps the first bucket layout.
	if h2 := r.Histogram("h", []float64{1}); h2 != h {
		t.Error("re-registration returned a different histogram")
	}
}

// testSnapshot builds a snapshot exercising every point type.
func testSnapshot() *Snapshot {
	r := NewRegistry()
	r.Counter("profiler.flushes").Add(3)
	r.Counter("osim.major").Add(41)
	r.Gauge("image.text_bytes").Set(123456)
	r.Gauge("run.cpu_nanos").Set(0.125)
	h := r.Histogram("osim.read_pages", []float64{1, 8, 32})
	h.Observe(1)
	h.Observe(9)
	h.Observe(1000)
	s := r.StartSpan("image.snapshot")
	time.Sleep(time.Microsecond)
	s.End()
	tl := r.Timeline("osim.faults", "offset", "page", "major", "io_nanos")
	tl.Record(".text", 4096, 1, 1, 96000)
	tl.Record(".svm_heap", 413696, 101, 0, 96000)
	return r.Snapshot()
}

// TestJSONSinkRoundTrip writes a snapshot with WriteDoc, the one JSON
// document writer, and reads it back unchanged.
func TestJSONSinkRoundTrip(t *testing.T) {
	snap := testSnapshot()
	var buf bytes.Buffer
	if err := WriteDoc(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDoc(&buf, "obs", "snapshot", SchemaVersion, func(s *Snapshot) string { return s.Schema }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Errorf("json round trip mismatch:\ngot  %+v\nwant %+v", got, snap)
	}
}

// TestDetachedPathAllocatesNothing is the regression test for the detached
// fast path: with a nil registry, every instrumentation-site operation must
// be allocation-free (and hence effectively free), so Tier-1 benchmarks are
// unaffected when observability is off.
func TestDetachedPathAllocatesNothing(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		if r.Enabled() {
			t.Fatal("nil registry claims enabled")
		}
		c := r.Counter("x")
		c.Add(1)
		c.Inc()
		g := r.Gauge("y")
		g.Set(2)
		h := r.Histogram("z", nil)
		h.Observe(3)
		tl := r.Timeline("t", "a", "b")
		tl.Record("label", 1, 2)
		s := r.StartSpan("span")
		s.End()
	})
	if allocs != 0 {
		t.Errorf("detached path allocates %.1f per op, want 0", allocs)
	}
}
