package workloads

import (
	"encoding/binary"
	"strconv"

	"nimage/internal/ir"
	"nimage/internal/murmur"
)

// pkgSpec sizes one generated library package. Every class carries a
// clinit-built data table (image-heap contents) and `methods` methods.
// Every hotPeriod-th class participates in startup: its even-indexed
// methods are *hot* (executed by the package boot) and read parts of the
// class table. Everything else is reachable only behind never-taken
// branches.
//
// Hot classes interleave with cold classes and hot methods with cold
// methods, so under the default alphabetical CU order the executed startup
// code is scattered across the whole .text section (the situation of
// Fig. 6a), the startup-accessed heap objects are scattered across
// .svm_heap, and — like the paper's workloads (Sec. 7.2) — a run accesses
// only a small fraction of the snapshot.
type pkgSpec struct {
	name    string
	classes int
	methods int
	// body is the arithmetic op count per method (drives code size).
	body int
	// data is the number of objects in each class's clinit-built table.
	data int
	// hotPeriod selects the hot-class density: every hotPeriod-th class
	// executes at startup (0 = fully cold package).
	hotPeriod int
	// reads is the number of table elements each hot method touches.
	reads int
	// saltShare is the percentage of classes whose table captures a
	// build-dependent value (0 = the 40% default). Framework packages use
	// a high share: generated bean metadata embeds build hashes.
	saltShare int
}

func (sp pkgSpec) salted(ci int) bool {
	share := sp.saltShare
	if share == 0 {
		share = 18
	}
	// Decorrelate the salting pattern from the hot-class grid: among hot
	// classes, hash the hot index; among cold ones, the class index. A
	// proper hash keeps the share uniform for any period.
	var buf [8]byte
	if sp.hotPeriod > 0 && ci%sp.hotPeriod == 0 {
		binary.LittleEndian.PutUint64(buf[:], uint64(ci/sp.hotPeriod)+1)
		return int(murmur.Sum64Seed(buf[:], uint64(len(sp.name)))%100) < share
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(ci)+1000)
	return int(murmur.Sum64Seed(buf[:], uint64(len(sp.name)))%100) < share
}

// pad2 renders a non-negative i in decimal, zero-padded to two digits.
func pad2(i int) string {
	if i < 10 {
		return "0" + strconv.Itoa(i)
	}
	return strconv.Itoa(i)
}

// names returns the package's class names ("pkg.C00", …) and method names
// ("m00", …), made once so every call site shares them.
func (sp pkgSpec) names() (classes, methods []string) {
	classes = make([]string, sp.classes)
	for ci := range classes {
		classes[ci] = sp.name + ".C" + pad2(ci)
	}
	methods = make([]string, sp.methods)
	for mi := range methods {
		methods[mi] = "m" + pad2(mi)
	}
	return classes, methods
}

func (sp pkgSpec) isHot(ci, mi int) bool {
	return sp.hotPeriod > 0 && ci%sp.hotPeriod == 0 && mi%2 == 0
}

// sharedLabels is the pool of interned strings shared by many class
// tables, like the deduplicated common strings of a real image heap
// ("true", "UTF-8", locale names, ...). A shared object's first path in
// the object graph depends on which table the (perturbed) traversal
// reaches first, so its heap-path identity flips between builds — the
// multiple-paths weakness the paper notes for the heap-path strategy
// (Sec. 5.3).
var sharedLabels = []string{
	"true", "false", "UTF-8", "ISO-8859-1", "en_US", "root", "default",
	"GMT", "UTC", "http", "https", "GET", "POST", "application/json",
	"text/plain", "localhost",
}

// addPackages generates the packages and returns the per-package boot
// targets ("pkg.Boot.boot") that Startup.initialize must call. Each boot
// executes the package's hot methods and references the cold ones behind a
// never-taken branch, keeping them reachable (Sec. 2).
func addPackages(b *ir.Builder, specs []pkgSpec) []string {
	var boots []string
	for _, sp := range specs {
		if sp.data%2 == 1 {
			sp.data++ // keep the string/box alternation aligned
		}
		classes, methods := sp.names()
		for ci, cls := range classes {
			c := b.Class(cls)
			c.Field("state", ir.Int())
			// Two candidate roots for the class table: which one the
			// initializer populates depends on a build-dependent value
			// (initialization races, conditional caching), so the *first
			// path* to the table and its contents differs across ~25% of
			// builds — the heap-path instability the paper acknowledges
			// (Sec. 5.3: only the single inclusion path is considered,
			// "which may be different across compilations").
			c.Static("table", ir.Array(refObj()))
			c.Static("tableAlt", ir.Array(refObj()))

			// clinit: the class's share of the image heap — alternating
			// strings and boxed integers, like charset/locale/metadata
			// tables.
			cl := c.Clinit()
			e := cl.Entry()
			n := e.ConstInt(int64(sp.data))
			arr := e.NewArray(refObj(), n)
			zero := e.ConstInt(0)
			two := e.ConstInt(2)
			lbl := e.Str(cls + "$entry-")
			exit := e.For(zero, n, 1, func(body *ir.BlockBuilder, i ir.Reg) *ir.BlockBuilder {
				rem := body.Arith(ir.Rem, i, two)
				cond := body.Cmp(ir.Eq, rem, zero)
				return body.IfElse(cond,
					func(th *ir.BlockBuilder) *ir.BlockBuilder {
						s := th.Intrinsic(ir.IntrinsicItoa, i)
						v := th.Intrinsic(ir.IntrinsicConcat, lbl, s)
						th.ASet(arr, i, v)
						return th
					},
					func(el *ir.BlockBuilder) *ir.BlockBuilder {
						o := el.Call(ClsInteger, "box", i)
						el.ASet(arr, i, o)
						return el
					})
			})
			if sp.salted(ci) {
				// A configurable share of the classes captures a
				// build-dependent value
				// in their table (identity-hash seeds, cached timestamps):
				// content-based identities see different tables in every
				// build (Sec. 2).
				salt := exit.Intrinsic(ir.IntrinsicBuildSalt)
				k127 := exit.ConstInt(127)
				saltBox := exit.Call(ClsInteger, "valueOf", exit.Arith(ir.And, salt, k127))
				last := exit.ConstInt(int64(sp.data - 1))
				exit.ASet(arr, last, saltBox)
			}
			salt2 := exit.Intrinsic(ir.IntrinsicBuildSalt)
			k3 := exit.ConstInt(3)
			alt := exit.Cmp(ir.Eq, exit.Arith(ir.And, salt2, k3), exit.ConstInt(0))
			fin := exit.IfElse(alt,
				func(th *ir.BlockBuilder) *ir.BlockBuilder {
					th.PutStatic(cls, "tableAlt", arr)
					return th
				},
				func(el *ir.BlockBuilder) *ir.BlockBuilder {
					el.PutStatic(cls, "table", arr)
					return el
				})
			fin.RetVoid()

			for mi := 0; mi < sp.methods; mi++ {
				m := c.StaticMethod(methods[mi], 1, ir.Int())
				me := m.Entry()
				acc := me.Move(m.Param(0))
				for k := 0; k < sp.body; k++ {
					kc := me.ConstInt(int64(ci*31 + mi*7 + k))
					op := ir.Add
					switch k % 3 {
					case 1:
						op = ir.Xor
					case 2:
						op = ir.Mul
					}
					me.ArithTo(acc, op, acc, kc)
				}
				if sp.isHot(ci, mi) {
					// Hot methods read table entries at startup: the
					// array, a string (length read), and a boxed integer
					// (field read) — the heap accesses the ordering
					// strategies reorder.
					tblA := me.GetStatic(cls, "table")
					tblB := me.GetStatic(cls, "tableAlt")
					nl := me.Null()
					useAlt := me.Cmp(ir.Eq, tblA, nl)
					tbl := me.NewReg()
					me = me.IfElse(useAlt,
						func(th *ir.BlockBuilder) *ir.BlockBuilder {
							th.MoveTo(tbl, tblB)
							return th
						},
						func(el *ir.BlockBuilder) *ir.BlockBuilder {
							el.MoveTo(tbl, tblA)
							return el
						})
					for r := 0; r < sp.reads; r++ {
						sIdx := me.ConstInt(int64((mi*sp.reads + r) * 2 % sp.data))
						elem := me.AGet(tbl, sIdx)
						ln := me.Intrinsic(ir.IntrinsicStrLen, elem)
						me.ArithTo(acc, ir.Add, acc, ln)
						one := me.ConstInt(1)
						bIdx := me.Arith(ir.Add, sIdx, one)
						box := me.AGet(tbl, bIdx)
						v := me.Call(ClsInteger, "intValue", box)
						me.ArithTo(acc, ir.Add, acc, v)
					}
				}
				me.Ret(acc)
			}
		}

		// Package boot: hot calls on the executed path, cold calls behind
		// a never-taken branch. The package also interns a few common
		// labels, deduplicated across the whole image.
		boot := b.Class(sp.name + ".Boot")
		bc := boot.Clinit()
		bce := bc.Entry()
		for k := 0; k < 3; k++ {
			lit := bce.Str(sharedLabels[(len(sp.name)*3+k)%len(sharedLabels)])
			bce.Intrinsic(ir.IntrinsicIntern, lit)
		}
		bce.RetVoid()
		bm := boot.StaticMethod("boot", 1, ir.Int())
		be := bm.Entry()
		acc := be.Move(bm.Param(0))
		for ci := 0; ci < sp.classes; ci++ {
			for mi := 0; mi < sp.methods; mi++ {
				if sp.isHot(ci, mi) {
					r := be.Call(classes[ci], methods[mi], acc)
					be.MoveTo(acc, r)
				}
			}
		}
		zero := be.ConstInt(0)
		never := be.Arith(ir.And, acc, zero) // always 0
		end := be.IfThen(never, func(th *ir.BlockBuilder) *ir.BlockBuilder {
			a2 := th.Move(acc)
			for ci := 0; ci < sp.classes; ci++ {
				for mi := 0; mi < sp.methods; mi++ {
					if !sp.isHot(ci, mi) {
						r := th.Call(classes[ci], methods[mi], a2)
						th.MoveTo(a2, r)
					}
				}
			}
			return th
		})
		end.Ret(acc)
		boots = append(boots, sp.name+".Boot.boot")
	}
	return boots
}
