package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"nimage/internal/obs/attrib"
)

// config is one run of one workload.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// traceDir receives a traced run's spans, CPU profile and per-layer
	// numbers.
	traceDir string
	// scale divides every dimension of a workload's set-up and passes
	// (1: full size).
	scale int
	// setups is how many times set-up runs at least; an untraced run sets
	// up again, up to maxSetups times, until its set-ups took setupSeconds.
	// setup_s is their median.
	setups       int
	setupSeconds float64
	// minOps is the fewest ops an untraced run measures, even past its
	// deadline.
	minOps int
}

// samples are the op times of one phase, in run order.
type samples struct {
	ms    []float64
	kinds []string
}

func (s *samples) add(kind string, d time.Duration) {
	s.ms = append(s.ms, ms(d))
	s.kinds = append(s.kinds, kind)
}

// byKind groups the op times by op kind.
func (s *samples) byKind() map[string][]float64 {
	out := map[string][]float64{}
	for i, k := range s.kinds {
		out[k] = append(out[k], s.ms[i])
	}
	return out
}

// runData is what one run measured.
type runData struct {
	setupSeconds []float64
	// walls are the op times of the measured phase, elapsed its wall time.
	walls   samples
	elapsed time.Duration

	attempted, failed int
	failures          []string // the first maxFailures failure messages

	// outcomes are the simulated outcomes of pass 0, in run order.
	outcomes []outcome
	// liveHeapMB is the heap held once set-up and pass 0 are done.
	liveHeapMB float64

	// calib are the calibration kernel's times (ms) of an untraced run.
	calib []float64

	// Traced runs only: the op times of the untraced baseline pass, and
	// what the traced phase recorded.
	baseWalls           samples
	tracedOps           int
	layers              layerCounts
	mallocs, allocBytes uint64
	spans               []span
	cpu                 map[string]int64
}

const maxFailures = 5

// runner runs ops and checks that a unit measured again reproduces its
// first simulated outcome bit for bit. When calibrating, it runs the
// calibration kernel after the first op and then every calibEvery.
type runner struct {
	d         *runData
	seen      map[string]string
	nextOp    int
	calibrate bool
	lastCalib time.Time
}

// measure sets the workload up at least cfg.setups times and then runs
// passes of its ops until cfg.seconds have passed; pass 0 always runs to
// the end, and an untraced run measures at least cfg.minOps ops.
//
// An untraced run measures on the last set-up. A traced run traces passes
// on the last and runs an untraced baseline pass 0 on the second-to-last:
// the traced pass 0 re-measures the same units, so tracing is checked to
// leave every simulated outcome unchanged.
func measure(spec workloadSpec, cfg config) (*runData, error) {
	d := &runData{layers: layerCounts{}}
	keep := 1
	if cfg.trace {
		keep = 2
	}
	var insts []instance
	var setupTotal float64
	for i := 0; i < max(cfg.setups, keep) || !cfg.trace && i < maxSetups && setupTotal < cfg.setupSeconds; i++ {
		if len(insts) == keep {
			copy(insts, insts[1:])
			insts[keep-1] = nil
			insts = insts[:keep-1]
		}
		// Start each set-up from the same heap, so earlier set-ups' garbage
		// is not timed.
		debug.FreeOSMemory()
		start := time.Now()
		inst, err := spec.setup(cfg.seed, max(cfg.scale, 1))
		if err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", spec.name, err)
		}
		d.setupSeconds = append(d.setupSeconds, time.Since(start).Seconds())
		setupTotal += d.setupSeconds[i]
		insts = append(insts, inst)
	}

	start := time.Now()
	r := &runner{d: d, seen: map[string]string{}, calibrate: !cfg.trace}
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	timeUp := func() bool { return !time.Now().Before(deadline) }
	last := insts[len(insts)-1]
	if !cfg.trace {
		done := func() bool { return timeUp() && len(d.walls.ms) >= cfg.minOps }
		for p := 0; ; p++ {
			more := r.pass(last, p, nil, done, &d.walls)
			if p == 0 {
				d.liveHeapMB = liveHeapMB()
			}
			if !more {
				break
			}
		}
		d.elapsed = time.Since(start)
		return d, nil
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("starting the CPU profile: %w", err)
	}
	tr := newTracer()
	// Pass 0 runs each op twice in a row, untraced on the baseline set-up
	// and traced on the last, so that both see the same host and heap; the
	// order alternates, so that neither always finds the caches warm.
	var baseline time.Duration
	base := insts[len(insts)-2].pass(0)
	for i, o := range last.pass(0) {
		if i%2 == 1 {
			r.run(o, 0, tr, &d.walls)
		}
		t := time.Now()
		r.run(base[i], 0, nil, &d.baseWalls)
		baseline += time.Since(t)
		if i%2 == 0 {
			r.run(o, 0, tr, &d.walls)
		}
	}
	for p := 1; r.pass(last, p, tr, timeUp, &d.walls); p++ {
	}
	pprof.StopCPUProfile()
	d.elapsed = time.Since(tr.t0) - baseline
	d.spans = tr.spans

	p, err := attrib.ReadPprof(bytes.NewReader(prof.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("reading the CPU profile: %w", err)
	}
	if d.cpu, err = cpuByModule(p); err != nil {
		return nil, err
	}
	if cfg.traceDir != "" {
		if err := writeTrace(cfg.traceDir, tr, prof.Bytes()); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// pass runs pass p of inst and reports whether the run goes on. Pass 0
// runs to its end whatever done says.
func (r *runner) pass(inst instance, p int, tr *tracer, done func() bool, walls *samples) bool {
	for _, o := range inst.pass(p) {
		if p > 0 && done() {
			return false
		}
		r.run(o, p, tr, walls)
	}
	return !done()
}

func (r *runner) run(o op, p int, tr *tracer, walls *samples) {
	r.nextOp++
	c := &opCtx{id: r.nextOp, tr: tr}
	res, err := o.run(c)
	d := r.d
	d.attempted++
	walls.add(o.kind, c.wall)
	fails := res.failures
	if err != nil {
		fails = append(fails, err.Error())
	}
	for _, out := range res.outcomes {
		prev, seen := r.seen[out.key]
		switch {
		case !seen:
			r.seen[out.key] = out.digest
			if p == 0 {
				d.outcomes = append(d.outcomes, out)
			}
		case prev != out.digest:
			fails = append(fails, out.key+": simulated outcome differs from its first measurement")
		}
	}
	if len(fails) > 0 {
		d.failed++
		for _, f := range fails {
			if len(d.failures) < maxFailures {
				d.failures = append(d.failures, f)
			}
		}
	}
	if tr != nil {
		d.tracedOps++
		d.layers.add(res.layers)
		d.mallocs += c.mallocs
		d.allocBytes += c.allocBytes
	}
	if r.calibrate && time.Since(r.lastCalib) >= calibEvery {
		d.calib = append(d.calib, ms(calibrate()))
		r.lastCalib = time.Now()
	}
}

// writeTrace writes a traced run's spans (one JSON object per line) and
// CPU profile into dir.
func writeTrace(dir string, tr *tracer, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.writeJSONLines(filepath.Join(dir, "spans.jsonl")); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof, 0o644)
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
