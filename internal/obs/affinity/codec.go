package affinity

// JSON codec for affinity graphs. WriteGraph emits the canonical form
// (indented JSON in struct field order); ReadGraph validates schema and
// bounds so hostile or truncated documents fail loudly instead of
// producing a graph whose indices crash the scorers — the contract
// FuzzAffinityCodec exercises: any accepted document round-trips to a
// fixed point, and no input panics the decoder.

import (
	"fmt"
	"io"
	"math"

	"nimage/internal/obs"
)

// Decode-side hard bounds: documents beyond these are rejected rather
// than trusted (the recorder never emits them; a hostile file might).
const (
	maxDecodeNodes      = 1 << 20
	maxDecodeEdges      = 1 << 22
	maxDecodeWindows    = 1 << 20
	maxDecodeWindowSyms = 1 << 16
	maxDecodeSections   = 1 << 12
)

// WriteGraph serializes the graph as indented JSON.
func WriteGraph(w io.Writer, g *Graph) error { return obs.WriteDoc(w, g) }

// ReadGraph deserializes and validates a graph written by WriteGraph.
func ReadGraph(r io.Reader) (*Graph, error) {
	return obs.ReadDoc(r, "affinity", "graph", GraphSchema, func(g *Graph) string { return g.Schema }, (*Graph).validate)
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// validate enforces the structural invariants a decoded graph must hold
// before any consumer walks its indices.
func (g *Graph) validate() error {
	if g.FileSize < 0 || g.Pages < 0 {
		return fmt.Errorf("negative file size or page count")
	}
	if len(g.Nodes) > maxDecodeNodes {
		return fmt.Errorf("%d nodes exceeds bound %d", len(g.Nodes), maxDecodeNodes)
	}
	if len(g.Edges) > maxDecodeEdges {
		return fmt.Errorf("%d edges exceeds bound %d", len(g.Edges), maxDecodeEdges)
	}
	if len(g.WindowLog) > maxDecodeWindows {
		return fmt.Errorf("%d windows exceeds bound %d", len(g.WindowLog), maxDecodeWindows)
	}
	if len(g.Sections) > maxDecodeSections {
		return fmt.Errorf("%d sections exceeds bound %d", len(g.Sections), maxDecodeSections)
	}
	if c := g.Config; c.WindowEvents < 0 || c.MaxEdges < 0 || c.MaxWindows < 0 ||
		c.MaxWindowSymbols < 0 || !finite(c.Decay) || c.Decay < 0 || c.Decay > 1 {
		return fmt.Errorf("config out of bounds: %+v", c)
	}
	for _, v := range []int64{
		g.AccessEvents, g.Faults, g.Major, g.Refaults, g.Evictions, g.Windows,
		g.Transitions, g.Cooccurrences, g.PrunedEdges, g.PrunedCo, g.PrunedTrans,
		g.DroppedWindows, g.OverflowEvents,
	} {
		if v < 0 {
			return fmt.Errorf("negative total counter")
		}
	}
	if !finite(g.PrunedWeight) || g.PrunedWeight < 0 {
		return fmt.Errorf("pruned weight not a finite non-negative number")
	}
	for i, n := range g.Nodes {
		if n.Name == "" {
			return fmt.Errorf("node %d: empty name", i)
		}
		if n.Off < 0 || n.Len < 0 {
			return fmt.Errorf("node %d (%s): negative byte range", i, n.Name)
		}
		if n.Accesses < 0 || n.Faults < 0 || n.Major < 0 || n.Refaults < 0 ||
			n.Evictions < 0 || n.FirstClock < 0 {
			return fmt.Errorf("node %d (%s): negative counter", i, n.Name)
		}
	}
	for i, e := range g.Edges {
		if e.A < 0 || e.B < 0 || int(e.A) >= len(g.Nodes) || int(e.B) >= len(g.Nodes) {
			return fmt.Errorf("edge %d: endpoint out of node range", i)
		}
		if e.A >= e.B {
			return fmt.Errorf("edge %d: endpoints not ordered (a=%d b=%d)", i, e.A, e.B)
		}
		if !finite(e.Weight) || e.Weight < 0 {
			return fmt.Errorf("edge %d: weight not a finite non-negative number", i)
		}
		if e.Co < 0 || e.Trans < 0 {
			return fmt.Errorf("edge %d: negative count", i)
		}
	}
	for i, w := range g.WindowLog {
		if w.Start < 0 || w.Events < 0 {
			return fmt.Errorf("window %d: negative start or event count", i)
		}
		if len(w.Nodes) > maxDecodeWindowSyms {
			return fmt.Errorf("window %d: %d symbols exceeds bound %d", i, len(w.Nodes), maxDecodeWindowSyms)
		}
		for _, id := range w.Nodes {
			if id < 0 || int(id) >= len(g.Nodes) {
				return fmt.Errorf("window %d: node id %d out of range", i, id)
			}
		}
	}
	for i, s := range g.Sections {
		if s.Major < 0 || s.Minor < 0 || s.IONanos < 0 || s.Evicted < 0 || s.Refaults < 0 {
			return fmt.Errorf("section %d (%s): negative counter", i, s.Section)
		}
	}
	return nil
}
