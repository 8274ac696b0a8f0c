package graal

import (
	"slices"
	"strings"
	"sync"

	"nimage/internal/ir"
)

// Reachability is the result of the points-to-style analysis: the sets of
// reachable methods and classes. The analysis is conservative — it always
// includes more code than what actually executes (Sec. 2) — and applies
// saturation to virtual calls with many possible targets.
type Reachability struct {
	// Methods is the set of reachable methods.
	Methods map[*ir.Method]bool
	// MethodOrder lists reachable methods in discovery order.
	MethodOrder []*ir.Method
	// Classes is the set of reachable classes.
	Classes map[*ir.Class]bool
	// ClassOrder lists reachable classes in discovery order; the image
	// builder runs their initializers and snapshots their static fields.
	ClassOrder []*ir.Class
	// SaturatedSites counts virtual call sites whose target set exceeded
	// the saturation threshold.
	SaturatedSites int

	compiledOnce sync.Once
	compiled     []*ir.Method
}

// Analyze runs the reachability analysis from the program entry point.
func Analyze(p *ir.Program, cfg Config) *Reachability {
	r := &Reachability{
		Methods: make(map[*ir.Method]bool),
		Classes: make(map[*ir.Class]bool),
	}
	var work []*ir.Method

	addMethod := func(m *ir.Method) {
		if m == nil || r.Methods[m] {
			return
		}
		r.Methods[m] = true
		r.MethodOrder = append(r.MethodOrder, m)
		work = append(work, m)
	}
	var addClass func(c *ir.Class)
	addClass = func(c *ir.Class) {
		if c == nil || r.Classes[c] {
			return
		}
		r.Classes[c] = true
		r.ClassOrder = append(r.ClassOrder, c)
		addClass(c.Super)
		// The class initializer of a reachable class runs at build time.
		addMethod(c.Clinit())
	}

	entry := p.Entry()
	if entry == nil {
		return r
	}
	addClass(entry.Class)
	addMethod(entry)

	for len(work) > 0 {
		m := work[len(work)-1]
		work = work[:len(work)-1]
		for _, b := range m.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpNew:
					addClass(in.Class)
				case ir.OpConstStr:
					addClass(p.Class(ir.StringClass))
				case ir.OpGetStatic, ir.OpPutStatic:
					addClass(in.Field.Class)
				case ir.OpGetField, ir.OpPutField:
					addClass(in.Field.Class)
				case ir.OpCall:
					addClass(in.Method.Class)
					addMethod(in.Method)
				case ir.OpCallVirt:
					addClass(in.Method.Class)
					targets := ir.Overriders(in.Method)
					if len(targets) > cfg.SaturationThreshold {
						r.SaturatedSites++
					}
					// Conservative: all overriders are reachable. (With
					// saturation Native Image deliberately gives up
					// precision on polymorphic sites, Sec. 2.)
					for _, t := range targets {
						addClass(t.Class)
						addMethod(t)
					}
				case ir.OpIntrinsic:
					if in.Sym == ir.IntrinsicSpawn {
						if t := spawnTarget(p, in.CName); t != nil {
							addClass(t.Class)
							addMethod(t)
						}
					}
				}
			}
		}
	}
	return r
}

// spawnTarget resolves a "Class.method" spawn target string.
func spawnTarget(p *ir.Program, target string) *ir.Method {
	dot := -1
	for i := len(target) - 1; i >= 0; i-- {
		if target[i] == '.' {
			dot = i
			break
		}
	}
	if dot < 0 {
		return nil
	}
	c := p.Class(target[:dot])
	if c == nil {
		return nil
	}
	return c.DeclaredMethod(target[dot+1:])
}

// CompiledMethods returns the reachable methods that are compiled into the
// .text section: every reachable method except class initializers, which
// execute at build time only (Sec. 2), sorted by signature for a stable
// baseline.
//
// The list is computed once per Reachability and shared by every caller
// (the builds of one pipeline share their analysis); callers must treat it
// as read-only and copy it before reordering.
func (r *Reachability) CompiledMethods() []*ir.Method {
	r.compiledOnce.Do(func() {
		out := make([]*ir.Method, 0, len(r.MethodOrder))
		for _, m := range r.MethodOrder {
			if !m.Clinit {
				out = append(out, m)
			}
		}
		// ir.Class rejects duplicate methods, so signatures are unique
		// and the order is total.
		slices.SortFunc(out, func(a, b *ir.Method) int { return strings.Compare(a.Signature(), b.Signature()) })
		r.compiled = out
	})
	return r.compiled
}
