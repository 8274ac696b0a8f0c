package obs

// Fleet observatory document: the serialized scorecard of one multi-
// tenant serve run — N tenants (workload × strategy pairs) served from
// one simulated OS under a shared page-cache budget. Each tenant carries
// its latency/fault/residency telemetry, per-burst timeline and isolation
// factors (in-fleet vs solo), and the report carries the eviction
// interference matrix: entry [i][j] counts pages owned by tenant j-1 that
// tenant i-1's faults evicted (row 0: external pressure; column 0:
// untenanted files). The matrix partitions the total evictions exactly —
// the validator rejects documents whose cells do not sum to the totals, so
// every consumer can trust the partition.

import (
	"fmt"
	"io"
)

// FleetSchema versions the serialized fleet report document.
const FleetSchema = "nimage.fleet/v1"

// Decode-side hard bounds for fleet report documents.
const (
	maxDecodeFleetTenants = 1 << 10
	maxDecodeFleetBursts  = 1 << 16
	maxDecodePressurePct  = 100
)

// FleetBurst is one burst of one tenant's timeline: latency quantiles
// plus the fault, eviction and residency telemetry of that burst.
type FleetBurst struct {
	Burst         int     `json:"burst"`
	Requests      int     `json:"requests"`
	MeanNanos     float64 `json:"mean_nanos"`
	P99Nanos      float64 `json:"p99_nanos"`
	MajorFaults   int64   `json:"major_faults"`
	Refaults      int64   `json:"refaults"`
	EvictedPages  int64   `json:"evicted_pages"`
	ResidentPages int64   `json:"resident_pages"`
}

// FleetTenant is one tenant's scorecard: identity (workload × strategy),
// run aggregates, the per-burst timeline, and the isolation factors
// against the tenant's solo run under the same budget (>1: the fleet made
// it worse).
type FleetTenant struct {
	Tenant     int    `json:"tenant"`
	Workload   string `json:"workload"`
	Strategy   string `json:"strategy"`
	QuotaPages int    `json:"quota_pages,omitempty"`
	// Startup and warm-burst latency aggregates (simulated nanoseconds).
	StartupNanos  float64 `json:"startup_nanos"`
	WarmMeanNanos float64 `json:"warm_mean_nanos"`
	WarmP99Nanos  float64 `json:"warm_p99_nanos"`
	// Fault traffic charged to the tenant (partition of the OS totals).
	Faults      int64 `json:"faults"`
	MajorFaults int64 `json:"major_faults"`
	Refaults    int64 `json:"refaults"`
	IONanos     int64 `json:"io_nanos"`
	// Owner-side page-cache churn: pages of this tenant's file evicted
	// (the interference matrix's column sum) and resident at run end.
	EvictedPages  int64 `json:"evicted_pages"`
	ResidentPages int64 `json:"resident_pages"`
	// Timeline is the per-burst fault/refault/residency record.
	Timeline []FleetBurst `json:"timeline,omitempty"`
	// Solo-run comparison: the same workload × strategy measured alone
	// under the same budget and pressure. IsolationLatency is the
	// in-fleet / solo warm-mean ratio; IsolationRefault the (1+fleet) /
	// (1+solo) re-fault ratio (add-one smoothed, so re-fault-free runs
	// stay finite).
	SoloWarmMeanNanos float64 `json:"solo_warm_mean_nanos,omitempty"`
	SoloRefaults      int64   `json:"solo_refaults,omitempty"`
	IsolationLatency  float64 `json:"isolation_latency,omitempty"`
	IsolationRefault  float64 `json:"isolation_refault,omitempty"`
}

// FleetReport is the fleet observatory document (`nimage fleet -o`,
// `output/BENCH_fleet.json` entries).
type FleetReport struct {
	Schema string `json:"schema"`
	// Scenario knobs shared by every tenant.
	Bursts      int           `json:"bursts"`
	BurstSize   int           `json:"burst_size"`
	CacheBudget int           `json:"cache_budget"`
	PressurePct int           `json:"pressure_pct"`
	Tenants     []FleetTenant `json:"tenants"`
	// EvictedBy is the interference matrix: [i][j] counts pages owned by
	// tenant j-1 evicted by tenant i-1's faults (row 0 external pressure,
	// column 0 untenanted files). It is (len(Tenants)+1)² and partitions
	// TotalEvictions exactly (enforced by the validator).
	EvictedBy      [][]int64 `json:"evicted_by"`
	TotalEvictions int64     `json:"total_evictions"`
}

// WriteFleetReport serializes the report as indented JSON.
func WriteFleetReport(w io.Writer, r *FleetReport) error { return WriteDoc(w, r) }

// ReadFleetReport deserializes and validates a report written by
// WriteFleetReport: hostile or truncated documents fail loudly instead
// of producing matrices whose indices crash the renderers — the contract
// FuzzFleetCodec exercises.
func ReadFleetReport(r io.Reader) (*FleetReport, error) {
	return ReadDoc(r, "obs", "fleet report", FleetSchema, func(r *FleetReport) string { return r.Schema }, (*FleetReport).validate)
}

// validate enforces the structural invariants a decoded fleet report must
// hold before any consumer renders it — including the partition contract
// of the interference matrix.
func (r *FleetReport) validate() error {
	if r.Bursts < 0 || r.BurstSize < 0 || r.CacheBudget < 0 {
		return fmt.Errorf("negative bursts, burst size or budget")
	}
	if r.PressurePct < 0 || r.PressurePct > maxDecodePressurePct {
		return fmt.Errorf("pressure %d%% outside [0, %d]", r.PressurePct, maxDecodePressurePct)
	}
	if len(r.Tenants) > maxDecodeFleetTenants {
		return fmt.Errorf("%d tenants exceeds bound %d", len(r.Tenants), maxDecodeFleetTenants)
	}
	for i, tn := range r.Tenants {
		if tn.Tenant != i {
			return fmt.Errorf("tenant %d carries id %d (must be its index)", i, tn.Tenant)
		}
		if tn.Workload == "" || tn.Strategy == "" {
			return fmt.Errorf("tenant %d: empty workload or strategy", i)
		}
		if tn.QuotaPages < 0 {
			return fmt.Errorf("tenant %d: negative quota", i)
		}
		for _, v := range []float64{tn.StartupNanos, tn.WarmMeanNanos, tn.WarmP99Nanos,
			tn.SoloWarmMeanNanos, tn.IsolationLatency, tn.IsolationRefault} {
			if !finiteNonNeg(v) {
				return fmt.Errorf("tenant %d: latency or isolation factor not finite non-negative", i)
			}
		}
		if tn.Faults < 0 || tn.MajorFaults < 0 || tn.Refaults < 0 || tn.IONanos < 0 ||
			tn.EvictedPages < 0 || tn.ResidentPages < 0 || tn.SoloRefaults < 0 {
			return fmt.Errorf("tenant %d: negative counter", i)
		}
		if len(tn.Timeline) > maxDecodeFleetBursts {
			return fmt.Errorf("tenant %d: %d timeline bursts exceeds bound %d", i, len(tn.Timeline), maxDecodeFleetBursts)
		}
		for k, b := range tn.Timeline {
			if b.Burst != k {
				return fmt.Errorf("tenant %d burst %d carries index %d (must be its position)", i, k, b.Burst)
			}
			if b.Requests < 0 || !finiteNonNeg(b.MeanNanos) || !finiteNonNeg(b.P99Nanos) {
				return fmt.Errorf("tenant %d burst %d: bad request count or latency", i, k)
			}
			if b.MajorFaults < 0 || b.Refaults < 0 || b.EvictedPages < 0 || b.ResidentPages < 0 {
				return fmt.Errorf("tenant %d burst %d: negative counter", i, k)
			}
		}
	}
	// Interference matrix: exactly (tenants+1)² and an exact partition of
	// the eviction totals.
	n := len(r.Tenants) + 1
	if len(r.EvictedBy) != n {
		return fmt.Errorf("interference matrix has %d rows, want %d", len(r.EvictedBy), n)
	}
	if r.TotalEvictions < 0 {
		return fmt.Errorf("negative total evictions")
	}
	var total int64
	colSums := make([]int64, n)
	for i, row := range r.EvictedBy {
		if len(row) != n {
			return fmt.Errorf("interference matrix row %d has %d columns, want %d", i, len(row), n)
		}
		for j, v := range row {
			if v < 0 {
				return fmt.Errorf("interference matrix cell [%d][%d] negative", i, j)
			}
			total += v
			colSums[j] += v
		}
	}
	if total != r.TotalEvictions {
		return fmt.Errorf("interference matrix sums to %d evictions, report claims %d", total, r.TotalEvictions)
	}
	for j, tn := range r.Tenants {
		if colSums[j+1] != tn.EvictedPages {
			return fmt.Errorf("tenant %d column sums to %d evictions, tenant reports %d", j, colSums[j+1], tn.EvictedPages)
		}
	}
	return nil
}
