// Custom workload + custom heap-ordering strategy.
//
// This example shows the two extension points of the library:
//
//  1. a user-defined program written in the mini-IR builder DSL (a small
//     inventory service with a build-time-initialized catalog), and
//  2. a user-defined object-identity strategy ("type+shape") plugged into
//     the optimizing build in place of the paper's three strategies, using
//     the same profile→match machinery (Sec. 5).
//
// The custom strategy hashes only the object's type, rough shape, and root
// reason — cheaper than the structural hash, more robust than incremental
// IDs, and less precise than heap paths. The example measures where it
// lands.
package main

import (
	"fmt"
	"hash/fnv"
	"log"

	"nimage"
)

// typeShapeStrategy is the custom identity strategy: objects are
// identified by their type, payload size, and — for roots — inclusion
// reason, disambiguated by a per-key counter.
type typeShapeStrategy struct{}

func (typeShapeStrategy) Name() string { return "type+shape" }

func (typeShapeStrategy) AssignIDs(snap *nimage.HeapSnapshot) map[*nimage.HeapObject]uint64 {
	ids := make(map[*nimage.HeapObject]uint64, len(snap.Objects))
	counters := make(map[string]uint64)
	for _, o := range snap.Objects {
		key := fmt.Sprintf("%s/%d", o.TypeName(), snap.Size(o))
		if o.IsString() {
			key += "/" + o.Str
		} else if snap.IsRoot(o) {
			key += "/" + snap.Reason(o)
		}
		counters[key]++
		h := fnv.New64a()
		fmt.Fprintf(h, "%s#%d", key, counters[key])
		ids[o] = h.Sum64()
	}
	return ids
}

// buildInventory constructs the custom workload: a catalog of products is
// initialized at image build time; at runtime a few lookups execute.
func buildInventory() *nimage.Program {
	b := nimage.NewProgramBuilder("inventory")
	b.Class("java.lang.Object")
	b.Class("java.lang.String")

	prod := b.Class("shop.Product")
	prod.Field("name", nimage.StringType())
	prod.Field("price", nimage.IntType())
	prod.Field("stock", nimage.IntType())

	cat := b.Class("shop.Catalog")
	cat.Static("products", nimage.ArrayType(nimage.RefType("shop.Product")))
	cl := cat.Clinit()
	e := cl.Entry()
	n := e.ConstInt(300)
	arr := e.NewArray(nimage.RefType("shop.Product"), n)
	zero := e.ConstInt(0)
	pfx := e.Str("product-")
	exit := e.For(zero, n, 1, func(body *nimage.BlockBuilder, i nimage.Reg) *nimage.BlockBuilder {
		o := body.New("shop.Product")
		sfx := body.Intrinsic("itoa", i)
		nm := body.Intrinsic("concat", pfx, sfx)
		body.PutField(o, "shop.Product", "name", nm)
		k := body.ConstInt(17)
		body.PutField(o, "shop.Product", "price", body.Arith(nimage.OpMul, i, k))
		body.ASet(arr, i, o)
		return body
	})
	exit.PutStatic("shop.Catalog", "products", arr)
	exit.RetVoid()

	app := b.Class("shop.Main")
	mm := app.StaticMethod("main", 0, nimage.VoidType())
	me := mm.Entry()
	prods := me.GetStatic("shop.Catalog", "products")
	z := me.ConstInt(0)
	hi := me.ConstInt(300)
	total := me.ConstInt(0)
	done := me.For(z, hi, 17, func(body *nimage.BlockBuilder, i nimage.Reg) *nimage.BlockBuilder {
		o := body.AGet(prods, i)
		p := body.GetField(o, "shop.Product", "price")
		body.ArithTo(total, nimage.OpAdd, total, p)
		return body
	})
	s := done.Intrinsic("itoa", total)
	done.IntrinsicVoid("print", s)
	done.RetVoid()
	b.SetEntry("shop.Main", "main")

	p, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return p
}

func main() {
	prog := buildInventory()
	fmt.Printf("custom workload: %d classes, %d methods\n\n", len(prog.Classes), prog.NumMethods())

	// Profiling build (seed A): run it and record the first-access order
	// of the snapshot objects, then translate to custom-strategy IDs.
	instrumented, err := nimage.BuildImage(prog, nimage.BuildOptions{
		Kind: nimage.KindInstrumented, Compiler: nimage.DefaultCompilerConfig(), BuildSeed: 31,
	})
	if err != nil {
		log.Fatal(err)
	}
	var accessOrder []*nimage.HeapObject
	seen := map[*nimage.HeapObject]bool{}
	o := nimage.NewOS(nimage.SSD())
	proc, err := instrumented.NewProcess(o, nimage.Hooks{
		OnAccess: func(tid int, obj *nimage.HeapObject, instr bool) {
			if instr && obj.InSnapshot() && !seen[obj] {
				seen[obj] = true
				accessOrder = append(accessOrder, obj)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := proc.Run(); err != nil {
		log.Fatal(err)
	}
	proc.Close()

	strategy := typeShapeStrategy{}
	profIDs := strategy.AssignIDs(instrumented.Snapshot)
	profile := make([]uint64, 0, len(accessOrder))
	for _, obj := range accessOrder {
		profile = append(profile, profIDs[obj])
	}
	fmt.Printf("profiled %d accessed objects of %d in the snapshot\n",
		len(profile), len(instrumented.Snapshot.Objects))

	// Optimizing build (seed B — a genuinely different build) consuming
	// the custom-strategy profile.
	optimized, err := nimage.BuildImage(prog, nimage.BuildOptions{
		Kind:         nimage.KindOptimized,
		Compiler:     nimage.DefaultCompilerConfig(),
		BuildSeed:    8,
		HeapProfile:  profile,
		HeapStrategy: strategy,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matched %d objects across builds (%d profile entries)\n\n",
		optimized.HeapMatchStats.MatchedObjects, optimized.HeapMatchStats.ProfileLen)

	regular, err := nimage.BuildImage(prog, nimage.BuildOptions{
		Kind: nimage.KindRegular, Compiler: nimage.DefaultCompilerConfig(), BuildSeed: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	run := func(img *nimage.Image) nimage.RunStats {
		osys := nimage.NewOS(nimage.SSD())
		pr, err := img.NewProcess(osys, nimage.Hooks{})
		if err != nil {
			log.Fatal(err)
		}
		defer pr.Close()
		if err := pr.Run(); err != nil {
			log.Fatal(err)
		}
		return pr.Stats()
	}
	base, opt := run(regular), run(optimized)
	fmt.Printf("%-22s %10s %12s\n", "cold start", "regular", "type+shape")
	fmt.Printf("%-22s %10d %12d\n", ".svm_heap page faults", base.HeapFaults.Total(), opt.HeapFaults.Total())
	fmt.Printf("%-22s %10v %12v\n", "end-to-end time", base.Total, opt.Total)
}
