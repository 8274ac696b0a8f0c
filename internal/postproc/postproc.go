// Package postproc parses raw trace files and derives the ordering profiles
// consumed by the optimizing image build (Sec. 6.2).
//
// The framework reads the per-thread traces, decodes each path ID back into
// its fixed event sequence (validating the recorded object-identifier count
// against the path's static access count), and dispatches the events — in
// thread-creation order, then execution order — to visitor-pattern ordering
// analyses. Each analysis maintains an ordered set (first occurrence wins,
// which both deduplicates and concatenates multi-threaded orderings exactly
// as Sec. 7.1 prescribes) and finally serializes to a CSV profile.
package postproc

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"nimage/internal/profiler"
)

// EventKind discriminates dispatched events.
type EventKind uint8

const (
	// EvCUEntry is the first-execution entry of a compilation unit.
	EvCUEntry EventKind = iota
	// EvMethodEntry is a method invocation.
	EvMethodEntry
	// EvPathStart announces a decoded path of a method (block sequence
	// available to analyses that care).
	EvPathStart
	// EvObjectAccess is a field/array access; Handle is the identifier the
	// instrumented binary stored for the object (0 = not a snapshot
	// object).
	EvObjectAccess
)

// Event is one trace event in execution order.
type Event struct {
	Kind   EventKind
	TID    int
	Sig    string // method signature for entries and path starts
	Blocks []int  // executed blocks for EvPathStart
	Handle uint64 // object identifier for EvObjectAccess
}

// Analysis consumes events one after the other in execution order.
type Analysis interface {
	Name() string
	Visit(ev Event)
}

// Dispatch decodes traces and feeds every event to the analyses. Threads
// are processed in creation (tid) order. numberings may be nil unless the
// traces contain path records.
func Dispatch(traces []profiler.ThreadTrace, table *profiler.MethodTable,
	numberings *profiler.Numberings, analyses ...Analysis) error {

	emit := func(ev Event) {
		for _, a := range analyses {
			a.Visit(ev)
		}
	}
	for _, tr := range traces {
		words := tr.Words
		for i := 0; i < len(words); {
			tag := words[i] & 7
			idx := int(words[i] >> 3)
			switch tag {
			case 1: // CU entry
				emit(Event{Kind: EvCUEntry, TID: tr.TID, Sig: table.Signature(idx)})
				i++
			case 2: // method entry
				emit(Event{Kind: EvMethodEntry, TID: tr.TID, Sig: table.Signature(idx)})
				i++
			case 3: // path header
				if i+3 > len(words) {
					return fmt.Errorf("postproc: truncated path record at word %d of thread %d", i, tr.TID)
				}
				m := table.Method(idx)
				if m == nil {
					return fmt.Errorf("postproc: unknown method index %d in thread %d", idx, tr.TID)
				}
				nb := numberings.Of(m)
				if nb == nil {
					return fmt.Errorf("postproc: no path numbering for %s", m.Signature())
				}
				pathID := words[i+1]
				nAcc := int(words[i+2])
				if i+3+nAcc > len(words) {
					return fmt.Errorf("postproc: truncated access list at word %d of thread %d", i, tr.TID)
				}
				blocks, err := nb.Decode(pathID)
				if err != nil {
					return fmt.Errorf("postproc: thread %d: %w", tr.TID, err)
				}
				if want := nb.PathAccessCount(blocks); want != nAcc {
					return fmt.Errorf("postproc: path %d of %s has %d static accesses but %d recorded",
						pathID, m.Signature(), want, nAcc)
				}
				emit(Event{Kind: EvPathStart, TID: tr.TID, Sig: m.Signature(), Blocks: blocks})
				for _, h := range words[i+3 : i+3+nAcc] {
					emit(Event{Kind: EvObjectAccess, TID: tr.TID, Handle: h})
				}
				i += 3 + nAcc
			default:
				return fmt.Errorf("postproc: invalid tag %d at word %d of thread %d", tag, i, tr.TID)
			}
		}
	}
	return nil
}

// CUOrderAnalysis derives the cu-ordering profile: CU root signatures in
// first-execution order (Sec. 4.1).
type CUOrderAnalysis struct {
	seen  map[string]bool
	order []string
}

// NewCUOrderAnalysis creates an empty analysis.
func NewCUOrderAnalysis() *CUOrderAnalysis {
	return &CUOrderAnalysis{seen: make(map[string]bool)}
}

// Name implements Analysis.
func (a *CUOrderAnalysis) Name() string { return "cu-order" }

// Visit implements Analysis.
func (a *CUOrderAnalysis) Visit(ev Event) {
	if ev.Kind != EvCUEntry || a.seen[ev.Sig] {
		return
	}
	a.seen[ev.Sig] = true
	a.order = append(a.order, ev.Sig)
}

// Profile returns the ordering profile.
func (a *CUOrderAnalysis) Profile() []string { return a.order }

// MethodOrderAnalysis derives the method-ordering profile: method
// signatures in first-execution order (Sec. 4.2).
type MethodOrderAnalysis struct {
	seen  map[string]bool
	order []string
}

// NewMethodOrderAnalysis creates an empty analysis.
func NewMethodOrderAnalysis() *MethodOrderAnalysis {
	return &MethodOrderAnalysis{seen: make(map[string]bool)}
}

// Name implements Analysis.
func (a *MethodOrderAnalysis) Name() string { return "method-order" }

// Visit implements Analysis.
func (a *MethodOrderAnalysis) Visit(ev Event) {
	if ev.Kind != EvMethodEntry || a.seen[ev.Sig] {
		return
	}
	a.seen[ev.Sig] = true
	a.order = append(a.order, ev.Sig)
}

// Profile returns the ordering profile.
func (a *MethodOrderAnalysis) Profile() []string { return a.order }

// HeapOrderAnalysis derives the heap-ordering profile: the identifiers of
// the accessed snapshot objects in first-access order (Sec. 5). The raw
// trace stores per-build object handles; Profile translates them to the
// 64-bit IDs of a specific identity strategy using the instrumented build's
// metadata.
type HeapOrderAnalysis struct {
	seen  map[uint64]bool
	order []uint64
}

// NewHeapOrderAnalysis creates an empty analysis.
func NewHeapOrderAnalysis() *HeapOrderAnalysis {
	return &HeapOrderAnalysis{seen: make(map[uint64]bool)}
}

// Name implements Analysis.
func (a *HeapOrderAnalysis) Name() string { return "heap-order" }

// Visit implements Analysis.
func (a *HeapOrderAnalysis) Visit(ev Event) {
	if ev.Kind != EvObjectAccess || ev.Handle == 0 || a.seen[ev.Handle] {
		return
	}
	a.seen[ev.Handle] = true
	a.order = append(a.order, ev.Handle)
}

// Handles returns the accessed object handles in first-access order.
func (a *HeapOrderAnalysis) Handles() []uint64 { return a.order }

// Profile translates the handle ordering into strategy IDs. idOf maps a
// handle to the strategy's 64-bit ID of the object in the instrumented
// build; handles it cannot map are dropped. Duplicate IDs (distinct objects
// whose IDs collide) keep their first position.
func (a *HeapOrderAnalysis) Profile(idOf func(handle uint64) (uint64, bool)) []uint64 {
	out := make([]uint64, 0, len(a.order))
	seen := make(map[uint64]bool, len(a.order))
	for _, h := range a.order {
		id, ok := idOf(h)
		if !ok || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

// WriteCodeProfile serializes a code-ordering profile as CSV: one method
// signature per line.
func WriteCodeProfile(w io.Writer, profile []string) error {
	bw := bufio.NewWriter(w)
	for _, sig := range profile {
		if strings.ContainsAny(sig, "\n\r") {
			return fmt.Errorf("postproc: signature %q contains newline", sig)
		}
		if _, err := bw.WriteString(sig + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCodeProfile parses a code-ordering profile. Signatures with
// embedded carriage returns are rejected: WriteCodeProfile could not
// re-serialize them, so accepting them would break round-trips.
func ReadCodeProfile(r io.Reader) ([]string, error) {
	var out []string
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.ContainsRune(line, '\r') {
			return nil, fmt.Errorf("postproc: code profile line %d: embedded carriage return", lineNo)
		}
		out = append(out, line)
	}
	return out, sc.Err()
}

// WriteHeapProfile serializes a heap-ordering profile as CSV: one
// hexadecimal 64-bit ID per line.
func WriteHeapProfile(w io.Writer, profile []uint64) error {
	bw := bufio.NewWriter(w)
	for _, id := range profile {
		if _, err := bw.WriteString(strconv.FormatUint(id, 16) + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadHeapProfile parses a heap-ordering profile.
func ReadHeapProfile(r io.Reader) ([]uint64, error) {
	var out []uint64
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		id, err := strconv.ParseUint(line, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("postproc: heap profile line %d: %w", lineNo, err)
		}
		out = append(out, id)
	}
	return out, sc.Err()
}

// FrequencyAnalysis counts how often each compilation unit (or method) is
// entered — the kind of frequency profile that steady-state layout
// algorithms such as Pettis–Hansen consume, in contrast to the paper's
// first-execution *order* profiles. It demonstrates that the framework's
// visitor design (Sec. 6.2) accommodates analyses beyond ordering.
type FrequencyAnalysis struct {
	counts map[string]int64
}

// NewFrequencyAnalysis creates an empty analysis.
func NewFrequencyAnalysis() *FrequencyAnalysis {
	return &FrequencyAnalysis{counts: make(map[string]int64)}
}

// Name implements Analysis.
func (a *FrequencyAnalysis) Name() string { return "frequency" }

// Visit implements Analysis.
func (a *FrequencyAnalysis) Visit(ev Event) {
	switch ev.Kind {
	case EvCUEntry, EvMethodEntry:
		a.counts[ev.Sig]++
	}
}

// Counts returns the per-signature entry counts.
func (a *FrequencyAnalysis) Counts() map[string]int64 { return a.counts }

// Hottest returns the n most frequently entered signatures, hottest first
// (ties broken by signature).
func (a *FrequencyAnalysis) Hottest(n int) []string {
	sigs := make([]string, 0, len(a.counts))
	for s := range a.counts {
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool {
		if a.counts[sigs[i]] != a.counts[sigs[j]] {
			return a.counts[sigs[i]] > a.counts[sigs[j]]
		}
		return sigs[i] < sigs[j]
	})
	if n > len(sigs) {
		n = len(sigs)
	}
	return sigs[:n]
}
