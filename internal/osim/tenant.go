package osim

// Multi-tenant page-cache accounting. The fleet observatory serves N
// tenants (one long-lived image each) from a single OS with one shared
// CacheBudget, and needs every fault, eviction and re-fault charged to a
// tenant so cross-tenant interference is attributable: which tenant's
// faults pushed whose pages out, and who paid the re-fault bill. Tagging is
// explicit, the counters partition the shared totals exactly (enforced by
// test), and an OS that never tags a tenant pays nothing.
//
// Ownership versus charge: files are *owned* by the tenant that created
// them (OS.DefaultTenant at NewFile time), while faults are *charged* to
// the tenant tagged on the faulting mapping. The interference matrix
// crosses the two — entry [i][j] counts pages owned by tenant j-1 that
// tenant i-1's faults evicted, with row 0 for external pressure (Reclaim,
// DropCaches) and column 0 for untenanted files.

import (
	"fmt"
	"time"
)

// TenantFaults is the fault traffic one tenant incurred across every
// mapping of the OS — the fleet-mode contention accounting, where several
// tenants' processes compete for one page-cache budget. The per-tenant
// counters partition the fault totals exactly (enforced by test): every
// fault is charged to the tenant tagged on the mapping that took it.
type TenantFaults struct {
	Tenant      int   `json:"tenant"`
	Faults      int64 `json:"faults"`
	MajorFaults int64 `json:"major_faults"`
	Refaults    int64 `json:"refaults"`
	IONanos     int64 `json:"io_nanos"`
}

// SetTenant tags the mapping with the tenant that owns the accesses until
// the next SetTenant: faults taken while the tag is t are charged to
// tenant t's TenantFaults and evictions those faults force are attributed
// to t in the interference matrix. The first call enables tenant
// accounting on the OS; ids must be non-negative and are expected to stay
// small (the fleet harness uses 0..Tenants-1).
func (m *Mapping) SetTenant(t int) {
	if t < 0 {
		panic(fmt.Sprintf("osim: negative tenant id %d", t))
	}
	m.tenant = t
	m.file.os.enableTenants(t)
}

// Tenant returns the tenant id the mapping currently charges (-1 when
// untenanted).
func (m *Mapping) Tenant() int { return m.tenant }

// Tenant returns the tenant owning the file's pages (-1 when untenanted).
// Ownership is fixed at NewFile time from OS.DefaultTenant.
func (f *File) Tenant() int { return f.tenant }

// enableTenants turns tenant accounting on (idempotent) and grows the
// per-tenant counters and the interference matrix to cover tenant t.
func (o *OS) enableTenants(t int) {
	for len(o.perTenant) <= t {
		o.perTenant = append(o.perTenant, TenantFaults{Tenant: len(o.perTenant)})
	}
	if o.evictedBy == nil {
		o.evictedBy = [][]int64{{0}}
	}
	o.growMatrix(t, t)
}

// growMatrix ensures the interference matrix covers evictor row and owner
// column for the given tenant ids (id -1 maps to row/column 0), keeping
// the matrix rectangular.
func (o *OS) growMatrix(evictor, owner int) {
	width := len(o.evictedBy[0])
	if owner+2 > width {
		width = owner + 2
		for i := range o.evictedBy {
			for len(o.evictedBy[i]) < width {
				o.evictedBy[i] = append(o.evictedBy[i], 0)
			}
		}
	}
	for len(o.evictedBy) <= evictor+1 {
		o.evictedBy = append(o.evictedBy, make([]int64, width))
	}
}

// noteEviction records one eviction in the interference matrix: the
// tenant whose fault (or the external pressure, evictor -1) evicted a
// page of the owning tenant's file. No-op until tenancy is enabled.
func (o *OS) noteEviction(evictor, owner int) {
	if o.evictedBy == nil {
		return
	}
	o.growMatrix(evictor, owner)
	o.evictedBy[evictor+1][owner+1]++
}

// chargeTenant attributes one fault to the mapping's tenant.
func (m *Mapping) chargeTenant(major, refault bool, faultIO time.Duration) {
	if m.tenant < 0 {
		return
	}
	tf := &m.file.os.perTenant[m.tenant]
	tf.Faults++
	if major {
		tf.MajorFaults++
		tf.IONanos += faultIO.Nanoseconds()
	}
	if refault {
		tf.Refaults++
	}
}

// TenantCounters returns a copy of the per-tenant fault counters, one
// entry per tenant id seen (nil when tenancy was never enabled).
func (o *OS) TenantCounters() []TenantFaults {
	if o.perTenant == nil {
		return nil
	}
	return append([]TenantFaults(nil), o.perTenant...)
}

// InterferenceMatrix returns a copy of the eviction interference matrix:
// entry [i][j] counts pages owned by tenant j-1 that tenant i-1's faults
// evicted. Row 0 is external pressure (Reclaim, DropCaches); column 0 is
// untenanted files. The entries partition every eviction since tenancy
// was enabled (enforced by test): the whole matrix sums to the total
// evictions, and column j+1 sums to tenant j's evicted pages. Nil when
// tenancy was never enabled.
func (o *OS) InterferenceMatrix() [][]int64 {
	if o.evictedBy == nil {
		return nil
	}
	out := make([][]int64, len(o.evictedBy))
	for i, row := range o.evictedBy {
		out[i] = append([]int64(nil), row...)
	}
	return out
}

// TenantEvictions returns the cumulative pages evicted (any cause) from
// files owned by tenant t — the owner-side count the interference
// matrix's column must reconcile with.
func (o *OS) TenantEvictions(t int) int64 {
	var n int64
	for _, f := range o.files {
		if f.tenant == t {
			n += f.evicted
		}
	}
	return n
}

// TenantRefaults returns the cumulative re-faulted pages of files owned
// by tenant t.
func (o *OS) TenantRefaults(t int) int64 {
	var n int64
	for _, f := range o.files {
		if f.tenant == t {
			n += f.refaults
		}
	}
	return n
}

// TenantResidentPages returns how many pages of tenant t's files are
// currently resident.
func (o *OS) TenantResidentPages(t int) int {
	n := 0
	for _, f := range o.files {
		if f.tenant == t {
			n += f.ResidentPages()
		}
	}
	return n
}

// SetTenantQuota caps the resident pages of the files owned by tenant t.
// When a fault's read pushes the tenant past its quota, the OS evicts the
// tenant's own coldest pages (LRU within the tenant, self-charged in the
// interference matrix) until it fits again — residency isolation paid for
// by the tenant's own churn, the arbitration policy the fleet scorecards
// measure. pages <= 0 removes the quota.
func (o *OS) SetTenantQuota(t, pages int) {
	if t < 0 {
		panic(fmt.Sprintf("osim: negative tenant id %d", t))
	}
	if pages <= 0 {
		delete(o.tenantQuota, t)
		return
	}
	if o.tenantQuota == nil {
		o.tenantQuota = make(map[int]int)
	}
	o.tenantQuota[t] = pages
	o.enableTenants(t)
}

// TenantQuota returns tenant t's residency quota in pages (0: none).
func (o *OS) TenantQuota(t int) int { return o.tenantQuota[t] }

// enforceQuota evicts tenant t's own coldest pages while it exceeds its
// residency quota, never evicting the pinned (currently faulting) page.
func (o *OS) enforceQuota(t int, pin *File, pinPage int) {
	if t < 0 || o.tenantQuota == nil {
		return
	}
	q, ok := o.tenantQuota[t]
	if !ok {
		return
	}
	for o.TenantResidentPages(t) > q {
		if !o.tenantLRUEvict(t, pin, pinPage) {
			return
		}
	}
}

// tenantLRUEvict evicts tenant t's least-recently-used resident page
// (the same deterministic tie-breaks as lruEvict: file registration
// order, then page index), charged to t itself.
func (o *OS) tenantLRUEvict(t int, pin *File, pinPage int) bool {
	var victim *File
	vp := -1
	var vUse int64
	for _, f := range o.files {
		if f.tenant != t {
			continue
		}
		for p, res := range f.resident {
			if !res || (f == pin && p == pinPage) {
				continue
			}
			if victim == nil || f.lastUse[p] < vUse {
				victim, vp, vUse = f, p, f.lastUse[p]
			}
		}
	}
	if victim == nil {
		return false
	}
	o.evictPage(victim, vp, EvictBudget, t)
	return true
}
