package osim

// Multi-tenant page-cache accounting. The fleet observatory serves N
// tenants (one long-lived image each) from a single OS with one shared
// CacheBudget, and needs every eviction charged to a tenant so cross-
// tenant interference is attributable: which tenant's faults pushed whose
// pages out, and who paid the re-fault bill. Tagging is explicit, the
// interference matrix partitions the evictions exactly (enforced by test),
// and an OS that never tags a tenant pays nothing.
//
// Ownership versus charge: files are *owned* by the tenant that created
// them (OS.DefaultTenant at NewFile time), while faults are *charged* to
// the tenant tagged on the faulting mapping. The interference matrix
// crosses the two — entry [i][j] counts pages owned by tenant j-1 that
// tenant i-1's faults evicted, with row 0 for external pressure (Reclaim,
// DropCaches) and column 0 for untenanted files.

import "fmt"

// TenantFaults is the fault traffic one tenant incurred — the fleet-mode
// contention accounting, where several tenants' processes compete for one
// page-cache budget. Each fleet tenant owns exactly one mapping, so its
// counters are that mapping's.
type TenantFaults struct {
	Tenant      int   `json:"tenant"`
	Faults      int64 `json:"faults"`
	MajorFaults int64 `json:"major_faults"`
	Refaults    int64 `json:"refaults"`
	IONanos     int64 `json:"io_nanos"`
}

// SetTenant tags the mapping with the tenant that owns the accesses until
// the next SetTenant: evictions that faults taken while the tag is t force
// are attributed to t in the interference matrix. The first call enables
// tenant accounting on the OS; ids must be non-negative and are expected to stay
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
// interference matrix to cover tenant t.
func (o *OS) enableTenants(t int) {
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
	if t < -1 || t+1 >= len(o.ownerResident) {
		return 0
	}
	return o.ownerResident[t+1]
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

// enforceQuota evicts tenant t's own coldest pages until it fits its
// residency quota, never evicting the pinned (currently faulting) page.
func (o *OS) enforceQuota(t int, pin *File, pinPage int) {
	if t < 0 || o.tenantQuota == nil {
		return
	}
	q, ok := o.tenantQuota[t]
	if !ok {
		return
	}
	o.evictColdest(o.TenantResidentPages(t)-q, t, pin, pinPage, EvictBudget, t)
}
