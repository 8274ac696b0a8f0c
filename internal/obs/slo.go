package obs

// SLO scorecards: configurable latency targets (quantile + budget), the
// attainment math over a measured latency sample, and the serialized
// pressure-sweep report document the serve SLO observatory emits
// (`nimage slo`, `nimage-eval -figure slo`). Attainment is judged the
// way an error budget is spent: a target "p99 <= 2ms" tolerates 1% of
// requests over budget, so the score is the measured violation fraction
// against that tolerance, and the burn rate is their ratio — burn <= 1
// attains, burn 3.0 means the run spent its error budget three times
// over.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SLOSchema versions the serialized SLO report document.
const SLOSchema = "nimage.slo/v1"

// Decode-side hard bounds for SLO report documents.
const (
	maxDecodeTargets     = 1 << 10
	maxDecodeSLOEntries  = 1 << 20
	maxDecodeOverheads   = 1 << 12
	maxDecodePressurePct = 100
)

// SLOTarget is one latency objective: the Quantile-quantile of request
// latency must not exceed BudgetNanos.
type SLOTarget struct {
	Quantile    float64 `json:"quantile"`
	BudgetNanos float64 `json:"budget_nanos"`
}

// String renders the target in the -slo flag syntax (p99=2ms).
func (t SLOTarget) String() string {
	q := strconv.FormatFloat(t.Quantile*100, 'f', -1, 64)
	return fmt.Sprintf("p%s=%v", q, time.Duration(t.BudgetNanos))
}

// DefaultSLOTargets returns the default serve objectives: p50/p95/p99/
// p99.9 budgets spanning the latency range the simulated serve bursts
// produce (sub-millisecond medians, fault-dominated tails).
func DefaultSLOTargets() []SLOTarget {
	return []SLOTarget{
		{Quantile: 0.50, BudgetNanos: 100e3}, // p50 <= 100µs
		{Quantile: 0.95, BudgetNanos: 500e3}, // p95 <= 500µs
		{Quantile: 0.99, BudgetNanos: 2e6},   // p99 <= 2ms
		{Quantile: 0.999, BudgetNanos: 10e6}, // p99.9 <= 10ms
	}
}

// ParseSLOTargets parses a -slo flag value: comma-separated
// p<quantile>=<duration> terms, e.g. "p50=100us,p99=2ms,p99.9=10ms".
// Targets must be strictly increasing in quantile; quantiles must lie
// in (0, 100) percent (p100 has no error budget to burn).
func ParseSLOTargets(s string) ([]SLOTarget, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("slo targets must be non-empty p<quantile>=<duration> terms, e.g. p99=2ms")
	}
	var out []SLOTarget
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		q, budget, ok := strings.Cut(term, "=")
		if !ok || !strings.HasPrefix(q, "p") {
			return nil, fmt.Errorf("slo target %q must be p<quantile>=<duration>, e.g. p99=2ms", term)
		}
		pct, err := strconv.ParseFloat(q[1:], 64)
		if err != nil || math.IsNaN(pct) || pct <= 0 || pct >= 100 {
			return nil, fmt.Errorf("slo quantile in %q must be a percentile in (0, 100), e.g. p99.9", term)
		}
		d, err := time.ParseDuration(budget)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("slo budget in %q must be a positive duration, e.g. 2ms", term)
		}
		out = append(out, SLOTarget{Quantile: pct / 100, BudgetNanos: float64(d.Nanoseconds())})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo targets must contain at least one p<quantile>=<duration> term")
	}
	for i := 1; i < len(out); i++ {
		if out[i].Quantile <= out[i-1].Quantile {
			return nil, fmt.Errorf("slo quantiles must be strictly increasing, got %s after %s",
				out[i], out[i-1])
		}
	}
	return out, nil
}

// SLOAttainment is one target's score over a measured latency sample.
type SLOAttainment struct {
	Quantile    float64 `json:"quantile"`
	BudgetNanos float64 `json:"budget_nanos"`
	// MeasuredNanos is the exact nearest-rank quantile of the sample.
	MeasuredNanos float64 `json:"measured_nanos"`
	// Violations counts requests over budget; ViolationFrac is their
	// fraction of Requests.
	Violations    int     `json:"violations"`
	Requests      int     `json:"requests"`
	ViolationFrac float64 `json:"violation_frac"`
	// Attained reports whether the violation fraction stayed within the
	// target's error budget (1 - Quantile); BudgetBurn is the ratio of
	// the two (<= 1 attains).
	Attained   bool    `json:"attained"`
	BudgetBurn float64 `json:"budget_burn"`
}

// Attainment scores a sorted latency sample (nanoseconds, ascending)
// against each target. An empty sample attains trivially (no request
// violated anything).
func Attainment(sorted []float64, targets []SLOTarget) []SLOAttainment {
	out := make([]SLOAttainment, 0, len(targets))
	for _, tg := range targets {
		a := SLOAttainment{
			Quantile:    tg.Quantile,
			BudgetNanos: tg.BudgetNanos,
			Requests:    len(sorted),
			Attained:    true,
		}
		if len(sorted) > 0 {
			a.MeasuredNanos = QuantileExact(sorted, tg.Quantile)
			// First index over budget: everything after it violates.
			idx := sort.SearchFloat64s(sorted, tg.BudgetNanos)
			for idx < len(sorted) && sorted[idx] == tg.BudgetNanos {
				idx++ // at budget is within budget
			}
			a.Violations = len(sorted) - idx
			a.ViolationFrac = float64(a.Violations) / float64(len(sorted))
			tolerance := 1 - tg.Quantile
			if tolerance > 0 {
				a.BudgetBurn = a.ViolationFrac / tolerance
			} else if a.Violations > 0 {
				a.BudgetBurn = math.Inf(1)
			}
			a.Attained = a.BudgetBurn <= 1
		}
		out = append(out, a)
	}
	return out
}

// SLOEntry is one (workload, strategy, pressure) cell of the sweep: the
// attainment of every target over the warm request latencies.
type SLOEntry struct {
	Workload    string `json:"workload"`
	Strategy    string `json:"strategy"`
	PressurePct int    `json:"pressure_pct"`
	Streams     int    `json:"streams"`
	// Requests is the number of warm requests scored (cold burst 0 is
	// excluded, matching the serve figures' warm aggregates).
	Requests    int             `json:"requests"`
	Attainments []SLOAttainment `json:"attainments"`
}

// SLOOverhead is the observatory's own cost, measured in the
// go-observability-bench idiom: the same serve scenario run twice —
// telemetry fully on (registry + request trace) vs fully off — with the
// wall-clock per-request delta reported. The simulated results must be
// identical (telemetry never perturbs the simulation); the delta is
// host wall time, so it is a tracked number, not a deterministic one.
type SLOOverhead struct {
	Workload string `json:"workload"`
	Strategy string `json:"strategy"`
	Requests int    `json:"requests"`
	// Wall nanoseconds per request with telemetry on and off, and the
	// relative overhead ((on-off)/off; negative values are host noise).
	OnWallNanosPerReq  float64 `json:"on_wall_nanos_per_req"`
	OffWallNanosPerReq float64 `json:"off_wall_nanos_per_req"`
	OverheadFrac       float64 `json:"overhead_frac"`
	// SimIdentical reports that the simulated outcomes (startup, every
	// burst, warm aggregates) were bit-identical across the two runs.
	SimIdentical bool `json:"sim_identical"`
}

// SLOReport is the pressure-sweep SLO document (`output/BENCH_slo.json`).
type SLOReport struct {
	Schema string `json:"schema"`
	// Streams is the stream count of the sweep; Pressures its pressure
	// levels in sweep order.
	Streams   int         `json:"streams"`
	Pressures []int       `json:"pressures"`
	Targets   []SLOTarget `json:"targets"`
	Entries   []SLOEntry  `json:"entries"`
	// Overhead carries the telemetry-on/off control runs (one per
	// workload), so the observatory's own cost ships with its numbers.
	Overhead []SLOOverhead `json:"overhead,omitempty"`
}

// WriteSLOReport serializes the report as indented JSON.
func WriteSLOReport(w io.Writer, r *SLOReport) error { return WriteDoc(w, r) }

// ReadSLOReport deserializes and validates a report written by
// WriteSLOReport.
func ReadSLOReport(r io.Reader) (*SLOReport, error) {
	return ReadDoc(r, "obs", "slo report", SLOSchema, func(r *SLOReport) string { return r.Schema }, (*SLOReport).validate)
}

func finiteNonNeg(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

func validTargets(targets []SLOTarget) error {
	if len(targets) > maxDecodeTargets {
		return fmt.Errorf("%d targets exceeds bound %d", len(targets), maxDecodeTargets)
	}
	for i, t := range targets {
		if math.IsNaN(t.Quantile) || t.Quantile <= 0 || t.Quantile >= 1 {
			return fmt.Errorf("target %d: quantile outside (0, 1)", i)
		}
		if !finiteNonNeg(t.BudgetNanos) || t.BudgetNanos == 0 {
			return fmt.Errorf("target %d: budget not a finite positive number", i)
		}
	}
	return nil
}

// validate enforces the structural invariants a decoded report must
// hold before any consumer renders it.
func (r *SLOReport) validate() error {
	if r.Streams < 1 || r.Streams > maxDecodeStreams {
		return fmt.Errorf("stream count %d outside [1, %d]", r.Streams, maxDecodeStreams)
	}
	for _, p := range r.Pressures {
		if p < 0 || p > maxDecodePressurePct {
			return fmt.Errorf("pressure %d%% outside [0, %d]", p, maxDecodePressurePct)
		}
	}
	if err := validTargets(r.Targets); err != nil {
		return err
	}
	if len(r.Entries) > maxDecodeSLOEntries {
		return fmt.Errorf("%d entries exceeds bound %d", len(r.Entries), maxDecodeSLOEntries)
	}
	if len(r.Overhead) > maxDecodeOverheads {
		return fmt.Errorf("%d overhead rows exceeds bound %d", len(r.Overhead), maxDecodeOverheads)
	}
	for i, e := range r.Entries {
		if e.Workload == "" {
			return fmt.Errorf("entry %d: empty workload", i)
		}
		if e.PressurePct < 0 || e.PressurePct > maxDecodePressurePct {
			return fmt.Errorf("entry %d: pressure outside [0, %d]", i, maxDecodePressurePct)
		}
		if e.Streams < 1 || e.Streams > maxDecodeStreams || e.Requests < 0 {
			return fmt.Errorf("entry %d: stream or request count out of range", i)
		}
		if len(e.Attainments) > maxDecodeTargets {
			return fmt.Errorf("entry %d: %d attainments exceeds bound %d", i, len(e.Attainments), maxDecodeTargets)
		}
		for j, a := range e.Attainments {
			if math.IsNaN(a.Quantile) || a.Quantile <= 0 || a.Quantile >= 1 {
				return fmt.Errorf("entry %d attainment %d: quantile outside (0, 1)", i, j)
			}
			if !finiteNonNeg(a.BudgetNanos) || !finiteNonNeg(a.MeasuredNanos) {
				return fmt.Errorf("entry %d attainment %d: budget or measurement not finite non-negative", i, j)
			}
			if a.Violations < 0 || a.Requests < 0 || a.Violations > a.Requests {
				return fmt.Errorf("entry %d attainment %d: violation count out of range", i, j)
			}
			if math.IsNaN(a.ViolationFrac) || a.ViolationFrac < 0 || a.ViolationFrac > 1 {
				return fmt.Errorf("entry %d attainment %d: violation fraction outside [0, 1]", i, j)
			}
			if math.IsNaN(a.BudgetBurn) || a.BudgetBurn < 0 {
				return fmt.Errorf("entry %d attainment %d: negative or NaN budget burn", i, j)
			}
		}
	}
	for i, o := range r.Overhead {
		if o.Workload == "" {
			return fmt.Errorf("overhead %d: empty workload", i)
		}
		if o.Requests < 0 {
			return fmt.Errorf("overhead %d: negative request count", i)
		}
		if !finiteNonNeg(o.OnWallNanosPerReq) || !finiteNonNeg(o.OffWallNanosPerReq) {
			return fmt.Errorf("overhead %d: wall nanos not finite non-negative", i)
		}
		if math.IsNaN(o.OverheadFrac) || math.IsInf(o.OverheadFrac, 0) {
			return fmt.Errorf("overhead %d: overhead fraction not finite", i)
		}
	}
	return nil
}
