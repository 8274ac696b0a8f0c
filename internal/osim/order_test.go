package osim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is a brute-force model of the page cache's replacement rule,
// written as repeated minimum scans: every eviction rescans every page of
// every file for the smallest (last use, file index, page) key. Each file
// has one mapping, charged to the file's owning tenant.
type refCache struct {
	faultAround, budget int
	quota               map[int]int
	clock               int64
	files               []*refFile
	log                 []evictRecord
}

type refFile struct {
	tenant           int
	sections         []Section
	resident, mapped []bool
	lastUse          []int64
}

// evictRecord is one evict event: the file's registration index, the
// page and the cause.
type evictRecord struct {
	file, page int
	cause      EvictCause
}

func (r *refCache) use(f *refFile, p int) {
	r.clock++
	f.lastUse[p] = r.clock
}

// resident counts the resident pages of the files owned by tenant owner,
// or of every file when all is set.
func (r *refCache) resident(owner int, all bool) int {
	n := 0
	for _, f := range r.files {
		if !all && f.tenant != owner {
			continue
		}
		for _, res := range f.resident {
			if res {
				n++
			}
		}
	}
	return n
}

// evictMin evicts the coldest page of owner's files (-1: any file) other
// than the pinned page, and reports whether there was one.
func (r *refCache) evictMin(owner int, pin *refFile, pinPage int, cause EvictCause) bool {
	vf, vp := -1, -1
	for fi, f := range r.files {
		if owner >= 0 && f.tenant != owner {
			continue
		}
		for p, res := range f.resident {
			if !res || (f == pin && p == pinPage) {
				continue
			}
			if vf < 0 || f.lastUse[p] < r.files[vf].lastUse[vp] {
				vf, vp = fi, p
			}
		}
	}
	if vf < 0 {
		return false
	}
	r.evict(vf, vp, cause)
	return true
}

func (r *refCache) evict(fi, p int, cause EvictCause) {
	f := r.files[fi]
	f.resident[p], f.mapped[p] = false, false
	r.log = append(r.log, evictRecord{fi, p, cause})
}

func (r *refCache) touch(fi, p int) {
	f := r.files[fi]
	if f.mapped[p] {
		r.use(f, p)
		return
	}
	start := p / r.faultAround * r.faultAround
	end := min(start+r.faultAround, len(f.resident))
	if !f.resident[p] {
		for i := start; i < end; i++ {
			if !f.resident[i] {
				f.resident[i] = true
				r.use(f, i)
			}
		}
		for r.budget > 0 && r.resident(-1, true) > r.budget {
			if !r.evictMin(-1, f, p, EvictBudget) {
				break
			}
		}
		if q, ok := r.quota[f.tenant]; ok && f.tenant >= 0 {
			for r.resident(f.tenant, false) > q {
				if !r.evictMin(f.tenant, f, p, EvictBudget) {
					break
				}
			}
		}
	}
	r.use(f, p)
	for i := start; i < end; i++ {
		if f.resident[i] {
			f.mapped[i] = true
		}
	}
	f.mapped[p] = true
}

func (r *refCache) reclaim(n int) {
	for k := 0; k < n; k++ {
		if !r.evictMin(-1, nil, -1, EvictPressure) {
			return
		}
	}
}

func (r *refCache) drop() {
	for fi, f := range r.files {
		for p, res := range f.resident {
			if res {
				r.evict(fi, p, EvictDrop)
			}
		}
	}
}

// residentInSection counts f's resident pages by section, the catch-all
// bucket last.
func (f *refFile) residentInSection(i int) int {
	n := 0
	for p, res := range f.resident {
		off := int64(p) * PageSize
		in := i == len(f.sections)
		for j, s := range f.sections {
			if s.Contains(off) {
				in = i == j
			}
		}
		if res && in {
			n++
		}
	}
	return n
}

// evictLog records the evict events of one file's mapping into a log
// shared by all files.
type evictLog struct {
	file int
	log  *[]evictRecord
}

func (l evictLog) OnPageEvent(ev PageEvent) {
	if ev.Kind == PageEvict {
		*l.log = append(*l.log, evictRecord{l.file, ev.Page, ev.Cause})
	}
}

// TestEvictionOrderMatchesRepeatedMinimum drives seeded random sequences
// of touches, reclaims, budget overflows and two tenants' quotas through
// the OS and through refCache, and requires the same evict events in the
// same order after every operation, plus the same residency per file,
// section and tenant.
func TestEvictionOrderMatchesRepeatedMinimum(t *testing.T) {
	sizes := []struct{ pages, tenant int }{{24, 0}, {20, 1}, {12, 0}, {16, -1}}
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			o := NewOS(SSD())
			o.FaultAround = []int{1, 2, 4, 8}[rng.Intn(4)]
			ref := &refCache{faultAround: o.FaultAround, quota: map[int]int{}}
			if rng.Intn(4) > 0 {
				o.CacheBudget = 6 + rng.Intn(30)
				ref.budget = o.CacheBudget
			}
			var got []evictRecord
			var maps []*Mapping
			for fi, sz := range sizes {
				o.DefaultTenant = sz.tenant
				secs := []Section{
					{Name: ".text", Off: 0, Len: int64(sz.pages/2) * PageSize},
					{Name: ".svm_heap", Off: int64(sz.pages/2) * PageSize, Len: int64(sz.pages/3) * PageSize},
				}
				f, err := o.NewFile(fmt.Sprintf("f%d", fi), int64(sz.pages)*PageSize, secs)
				if err != nil {
					t.Fatal(err)
				}
				m := f.Map()
				m.Observe(evictLog{fi, &got})
				maps = append(maps, m)
				ref.files = append(ref.files, &refFile{
					tenant: sz.tenant, sections: secs,
					resident: make([]bool, sz.pages), mapped: make([]bool, sz.pages),
					lastUse: make([]int64, sz.pages),
				})
			}
			o.DefaultTenant = -1
			for tn := 0; tn < 2; tn++ {
				if rng.Intn(3) > 0 {
					q := 3 + rng.Intn(15)
					o.SetTenantQuota(tn, q)
					ref.quota[tn] = q
				}
			}
			for op := 0; op < 300; op++ {
				var what string
				switch k := rng.Intn(100); {
				case k < 84:
					fi := rng.Intn(len(sizes))
					p := rng.Intn(sizes[fi].pages)
					if rng.Intn(2) == 0 {
						p = rng.Intn(min(4, sizes[fi].pages)) // a hot page
					}
					what = fmt.Sprintf("touch file %d page %d", fi, p)
					maps[fi].Touch(int64(p) * PageSize)
					ref.touch(fi, p)
				case k < 94:
					n := rng.Intn(12)
					what = fmt.Sprintf("Reclaim(%d)", n)
					o.Reclaim(n)
					ref.reclaim(n)
				case k < 98:
					pct := rng.Intn(101)
					what = fmt.Sprintf("ReclaimFraction(%d)", pct)
					n := ref.resident(-1, true) * pct / 100
					o.ReclaimFraction(pct)
					ref.reclaim(n)
				default:
					what = "DropCaches"
					o.DropCaches()
					ref.drop()
				}
				if len(got) != len(ref.log) {
					t.Fatalf("op %d (%s): %d evictions, reference %d", op, what, len(got), len(ref.log))
				}
				for i := range got {
					if got[i] != ref.log[i] {
						t.Fatalf("op %d (%s): eviction %d is %+v, reference %+v", op, what, i, got[i], ref.log[i])
					}
				}
				for fi, f := range o.files {
					for si := 0; si <= len(f.Sections); si++ {
						if g, w := int(f.residentBySec[si]), ref.files[fi].residentInSection(si); g != w {
							t.Fatalf("op %d (%s): file %d section %d resident %d, reference %d", op, what, fi, si, g, w)
						}
					}
				}
				for tn := -1; tn < 2; tn++ {
					if g, w := o.TenantResidentPages(tn), ref.resident(tn, false); g != w {
						t.Fatalf("op %d (%s): tenant %d resident %d, reference %d", op, what, tn, g, w)
					}
				}
			}
		})
	}
}

// BenchmarkEvict measures the eviction path under every trigger at once:
// four tenants share one cache budget, each under a quota, touching
// pseudo-random pages of their own files (so faults overflow the budget
// and the quotas), with a 30% ReclaimFraction after every 64 touches.
// One op is 64 touches and one reclaim.
func BenchmarkEvict(b *testing.B) {
	const tenants, pages, budget, quota = 4, 512, 1024, 320
	o := NewOS(SSD())
	o.CacheBudget = budget
	var maps []*Mapping
	for tn := 0; tn < tenants; tn++ {
		o.DefaultTenant = tn
		f, err := o.NewFile(fmt.Sprintf("t%d", tn), pages*PageSize, []Section{
			{Name: ".text", Off: 0, Len: pages / 2 * PageSize},
			{Name: ".svm_heap", Off: pages / 2 * PageSize, Len: pages / 2 * PageSize},
		})
		if err != nil {
			b.Fatal(err)
		}
		maps = append(maps, f.Map())
		o.SetTenantQuota(tn, quota)
	}
	o.DefaultTenant = -1
	x := uint64(1)
	round := func() {
		for i := 0; i < 64; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			m := maps[i%tenants]
			m.Touch(int64(x>>33%pages) * PageSize)
		}
		o.ReclaimFraction(30)
	}
	for i := 0; i < 64; i++ {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
