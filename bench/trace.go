package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"nimage/internal/obs"
	"nimage/internal/obs/attrib"
)

// span is one traced call: its op, its parent span (0 for a root), and its
// start and end relative to the start of the traced phase. Spans taken
// from an obs.Registry (the image pipeline's stage spans) carry only a
// duration, so their start and end are omitted.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns,omitempty"`
	End    int64  `json:"end_ns,omitempty"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps the spans of the traced phase in memory until the run ends.
// A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans of the spans not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(op int, name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Dur = s.End - s.Start
}

// adopt records the spans of an obs registry snapshot as children of the
// innermost open span.
func (t *tracer) adopt(op int, snap *obs.Snapshot) {
	parent := t.spans[t.open[len(t.open)-1]].ID
	for _, sp := range snap.Spans {
		t.spans = append(t.spans, span{
			Op: op, ID: len(t.spans) + 1, Parent: parent, Name: sp.Name, Dur: sp.DurationNanos,
		})
	}
}

func (t *tracer) writeJSONLines(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opCtx is handed to one op: it times the op's measured call and, when the
// run is traced, records spans and allocation counts around public calls.
type opCtx struct {
	id int
	tr *tracer
	// registry, when tracing, is the obs registry the op passes to the
	// image pipeline so its stage spans can be adopted.
	registry *obs.Registry
	// wall is the duration of the call timed by timed.
	wall time.Duration
	// mallocs and allocBytes are the heap allocations of the timed call,
	// read from runtime.MemStats when tracing.
	mallocs, allocBytes uint64
}

func (c *opCtx) traced() bool { return c.tr != nil }

// timed runs fn as the op's measured call.
func (c *opCtx) timed(name string, fn func() error) error {
	var m0 runtime.MemStats
	if c.tr != nil {
		runtime.ReadMemStats(&m0)
		c.tr.begin(c.id, name)
	}
	start := time.Now()
	err := fn()
	c.wall = time.Since(start)
	if c.tr != nil {
		if c.registry != nil {
			c.tr.adopt(c.id, c.registry.Snapshot())
		}
		c.tr.end()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		c.mallocs = m1.Mallocs - m0.Mallocs
		c.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	}
	return err
}

// span runs fn inside a span when tracing.
func (c *opCtx) span(name string, fn func() error) error {
	if c.tr == nil {
		return fn()
	}
	c.tr.begin(c.id, name)
	defer c.tr.end()
	return fn()
}

// runtimeModule is the bucket of CPU samples with no frame in the
// repository's internal packages: the Go runtime, the garbage collector and
// the benchmark's own code.
const runtimeModule = "runtime"

// cpuByModule charges each sample of a Go CPU profile to the module of its
// innermost nimage/internal/<module> frame and returns the CPU nanoseconds
// per module.
func cpuByModule(p *attrib.Profile) (map[string]int64, error) {
	vi := -1
	for i, st := range p.SampleTypes {
		if st.Type == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no cpu sample type")
	}
	out := make(map[string]int64)
	for _, s := range p.Samples {
		if vi >= len(s.Values) {
			return nil, fmt.Errorf("profile sample has %d values, want > %d", len(s.Values), vi)
		}
		mod := runtimeModule
		for _, fn := range s.Stack {
			if m, ok := internalModule(fn); ok {
				mod = m
				break
			}
		}
		out[mod] += s.Values[vi]
	}
	return out, nil
}

// internalModule returns "vm" for "nimage/internal/vm.(*Machine).Run" and
// "obs" for "nimage/internal/obs/attrib.X".
func internalModule(fn string) (string, bool) {
	const prefix = "nimage/internal/"
	rest, ok := strings.CutPrefix(fn, prefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}
