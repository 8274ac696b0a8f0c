package obs

// Layout-search journals: the serialized record of one SLO-driven layout
// search (`nimage tune`, `nimage-eval -figure search`). Every iteration
// logs every generated candidate — its generation op, static prediction,
// whether it was promoted to full serve measurement, the measured
// scorecard, and the accept/reject reason — so a search trajectory can
// be replayed and audited offline. Like every document the toolchain
// ships, the decode side is bounded and validated before any consumer
// renders it, and hardened by FuzzSearchCodec.

import (
	"fmt"
	"io"
	"math"
)

// SearchSchema versions the serialized layout-search journal.
const SearchSchema = "nimage.search/v1"

// Decode-side hard bounds for search journals.
const (
	maxDecodeSearchIters      = 1 << 12
	maxDecodeSearchCandidates = 1 << 16
	maxDecodeSearchSymbols    = 1 << 24
)

// SearchCandidateRecord journals one generated candidate ordering: its
// static prediction always, its measured scorecard only when it was
// promoted past the prediction gate.
type SearchCandidateRecord struct {
	// ID names the candidate (e.g. "c3/limit=8192", "perturb/i1/k3/move");
	// Op is its generation family; OrderDigest the position-sensitive hash
	// of its ordering, hex-rendered.
	ID          string `json:"id"`
	Op          string `json:"op"`
	OrderDigest string `json:"order_digest"`
	// PredictedRefaults and PredictedLocality are the static affinity
	// replay's scores (the promotion ranking).
	PredictedRefaults int64   `json:"predicted_refaults"`
	PredictedLocality float64 `json:"predicted_locality"`
	// Promoted marks candidates that graduated to full serve measurement;
	// the measured fields below are zero for the rest.
	Promoted bool `json:"promoted"`
	// Attained counts attained (pressure, target) cells out of Targets;
	// BudgetBurn is the summed budget burn and RefaultGeomean the
	// refault-factor geomean across the swept pressures.
	Attained       int     `json:"attained,omitempty"`
	Targets        int     `json:"targets,omitempty"`
	BudgetBurn     float64 `json:"budget_burn,omitempty"`
	RefaultGeomean float64 `json:"refault_geomean,omitempty"`
	// Accepted marks the candidate that replaced the incumbent; Reason
	// explains the verdict either way ("strictly improves scorecard",
	// "not promoted", "no strict improvement", ...).
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason"`
}

// SearchIteration is one round of the search loop.
type SearchIteration struct {
	Iter int `json:"iter"`
	// Incumbent is the candidate ID holding the best measured scorecard
	// entering this iteration.
	Incumbent  string                  `json:"incumbent"`
	Candidates []SearchCandidateRecord `json:"candidates"`
}

// SearchFinal is the search's verdict: the winning candidate and its
// measured scorecard.
type SearchFinal struct {
	Candidate      string  `json:"candidate"`
	Symbols        int     `json:"symbols"`
	OrderDigest    string  `json:"order_digest"`
	Attained       int     `json:"attained"`
	Targets        int     `json:"targets"`
	BudgetBurn     float64 `json:"budget_burn"`
	RefaultGeomean float64 `json:"refault_geomean"`
}

// SearchReport is the layout-search journal document
// (`output/search-<workload>.json`).
type SearchReport struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Strategy string `json:"strategy"`
	// Seed drives the perturbation draws; BudgetIters and TopK are the
	// loop's budget; Pressures and Targets its objective.
	Seed        uint64            `json:"seed"`
	BudgetIters int               `json:"budget_iters"`
	TopK        int               `json:"top_k"`
	Pressures   []int             `json:"pressures"`
	Targets     []SLOTarget       `json:"targets"`
	Iterations  []SearchIteration `json:"iterations"`
	Final       SearchFinal       `json:"final"`
}

// WriteSearchReport serializes the journal as indented JSON.
func WriteSearchReport(w io.Writer, r *SearchReport) error { return WriteDoc(w, r) }

// ReadSearchReport deserializes and validates a journal written by
// WriteSearchReport.
func ReadSearchReport(r io.Reader) (*SearchReport, error) {
	return ReadDoc(r, "obs", "search report", SearchSchema, func(r *SearchReport) string { return r.Schema }, (*SearchReport).validate)
}

// validDigest accepts the hex rendering OrderDigest emits: 1-16 lowercase
// hex digits.
func validDigest(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func validMeasuredScore(attained, targets int, burn, geo float64) error {
	if targets < 0 || targets > maxDecodeTargets*(maxDecodePressurePct+1) {
		return fmt.Errorf("target cell count %d out of range", targets)
	}
	if attained < 0 || attained > targets {
		return fmt.Errorf("attained count %d outside [0, %d]", attained, targets)
	}
	if math.IsNaN(burn) || burn < 0 {
		return fmt.Errorf("negative or NaN budget burn")
	}
	if !finiteNonNeg(geo) {
		return fmt.Errorf("refault geomean not finite non-negative")
	}
	return nil
}

// validate enforces the structural invariants a decoded journal must
// hold before any consumer renders it.
func (r *SearchReport) validate() error {
	if r.Workload == "" || r.Strategy == "" {
		return fmt.Errorf("empty workload or strategy")
	}
	if r.BudgetIters < 0 || r.BudgetIters > maxDecodeSearchIters {
		return fmt.Errorf("budget %d outside [0, %d]", r.BudgetIters, maxDecodeSearchIters)
	}
	if r.TopK < 0 || r.TopK > maxDecodeSearchCandidates {
		return fmt.Errorf("top-k %d outside [0, %d]", r.TopK, maxDecodeSearchCandidates)
	}
	if len(r.Pressures) == 0 || len(r.Pressures) > maxDecodePressurePct+1 {
		return fmt.Errorf("pressure count %d outside [1, %d]", len(r.Pressures), maxDecodePressurePct+1)
	}
	for _, p := range r.Pressures {
		if p < 0 || p > maxDecodePressurePct {
			return fmt.Errorf("pressure %d%% outside [0, %d]", p, maxDecodePressurePct)
		}
	}
	if err := validTargets(r.Targets); err != nil {
		return err
	}
	if len(r.Targets) == 0 {
		return fmt.Errorf("no slo targets")
	}
	if len(r.Iterations) > maxDecodeSearchIters {
		return fmt.Errorf("%d iterations exceeds bound %d", len(r.Iterations), maxDecodeSearchIters)
	}
	for i, it := range r.Iterations {
		if it.Iter < 0 || it.Iter > maxDecodeSearchIters {
			return fmt.Errorf("iteration %d: index out of range", i)
		}
		if it.Incumbent == "" {
			return fmt.Errorf("iteration %d: empty incumbent", i)
		}
		if len(it.Candidates) > maxDecodeSearchCandidates {
			return fmt.Errorf("iteration %d: %d candidates exceeds bound %d", i, len(it.Candidates), maxDecodeSearchCandidates)
		}
		for j, c := range it.Candidates {
			if c.ID == "" || c.Op == "" {
				return fmt.Errorf("iteration %d candidate %d: empty id or op", i, j)
			}
			if !validDigest(c.OrderDigest) {
				return fmt.Errorf("iteration %d candidate %d: malformed order digest", i, j)
			}
			if c.PredictedRefaults < 0 {
				return fmt.Errorf("iteration %d candidate %d: negative predicted refaults", i, j)
			}
			if !finiteNonNeg(c.PredictedLocality) {
				return fmt.Errorf("iteration %d candidate %d: predicted locality not finite non-negative", i, j)
			}
			if c.Accepted && !c.Promoted {
				return fmt.Errorf("iteration %d candidate %d: accepted without promotion", i, j)
			}
			if c.Reason == "" {
				return fmt.Errorf("iteration %d candidate %d: empty reason", i, j)
			}
			if err := validMeasuredScore(c.Attained, c.Targets, c.BudgetBurn, c.RefaultGeomean); err != nil {
				return fmt.Errorf("iteration %d candidate %d: %v", i, j, err)
			}
		}
	}
	f := r.Final
	if f.Candidate == "" {
		return fmt.Errorf("final: empty candidate")
	}
	if f.Symbols < 0 || f.Symbols > maxDecodeSearchSymbols {
		return fmt.Errorf("final: symbol count %d out of range", f.Symbols)
	}
	if !validDigest(f.OrderDigest) {
		return fmt.Errorf("final: malformed order digest")
	}
	if err := validMeasuredScore(f.Attained, f.Targets, f.BudgetBurn, f.RefaultGeomean); err != nil {
		return fmt.Errorf("final: %v", err)
	}
	return nil
}
