package osim

import "testing"

// tenantFile registers one file owned by the given tenant (via the
// DefaultTenant inheritance the fleet harness uses) and maps it once.
func tenantFile(t *testing.T, o *OS, tenant, pages int) (*File, *Mapping) {
	t.Helper()
	o.DefaultTenant = tenant
	defer func() { o.DefaultTenant = -1 }()
	size := int64(pages) * PageSize
	f, err := o.NewFile("bin", size, []Section{
		{Name: ".text", Off: 0, Len: size / 2},
		{Name: ".svm_heap", Off: size / 2, Len: size / 2},
	})
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	return f, f.Map()
}

func TestTenantCountersDisabledByDefault(t *testing.T) {
	o := NewOS(SSD())
	f := newTestFile(t, o, 16)
	m := f.Map()
	m.Touch(0)
	m.Touch(PageSize * 4)
	if got := o.InterferenceMatrix(); got != nil {
		t.Fatalf("untenanted OS tracks evictions: %+v", got)
	}
	if m.Tenant() != -1 || f.Tenant() != -1 {
		t.Fatalf("untenanted mapping/file carry tenant %d/%d", m.Tenant(), f.Tenant())
	}
}

// TestInterferenceMatrixPartitionsEvictions is the fleet observability
// contract: every eviction lands in exactly one (evictor, owner) cell, so
// the matrix sums to the total evictions and each owner column sums to
// that tenant's evicted pages.
func TestInterferenceMatrixPartitionsEvictions(t *testing.T) {
	// The subtest names the replacement policy the partition is checked under.
	t.Run("lru", func(t *testing.T) {
		o := NewOS(SSD())
		o.FaultAround = 1
		o.CacheBudget = 4
		f0, m0 := tenantFile(t, o, 0, 8)
		f1, m1 := tenantFile(t, o, 1, 8)
		maps := []*Mapping{m0, m1}
		// Alternate streaming phases: the active tenant's faults evict
		// the idle tenant's cold pages, filling the cross-tenant cells.
		for pass := 0; pass < 4; pass++ {
			active := maps[pass%2]
			for p := 0; p < 8; p++ {
				active.Touch(int64(p) * PageSize)
			}
			// External pressure and a cold-start reset both land in the
			// matrix's external row.
			o.Reclaim(1)
		}
		o.DropCaches()
		mat := o.InterferenceMatrix()
		if len(mat) != 3 {
			t.Fatalf("matrix has %d rows, want 3 (external + 2 tenants)", len(mat))
		}
		var total int64
		colSums := make([]int64, len(mat[0]))
		anyExternal := false
		for i, row := range mat {
			if len(row) != len(mat[0]) {
				t.Fatalf("ragged matrix: row %d has %d cols, row 0 has %d", i, len(row), len(mat[0]))
			}
			for j, n := range row {
				if n < 0 {
					t.Fatalf("negative matrix cell [%d][%d] = %d", i, j, n)
				}
				total += n
				colSums[j] += n
				if i == 0 && n > 0 {
					anyExternal = true
				}
			}
		}
		wantTotal := f0.EvictedPages() + f1.EvictedPages()
		if total != wantTotal {
			t.Errorf("matrix sums to %d evictions, files evicted %d", total, wantTotal)
		}
		if total == 0 {
			t.Error("no evictions; the partition check is vacuous")
		}
		if colSums[0] != 0 {
			t.Errorf("untenanted owner column holds %d evictions, every file is owned", colSums[0])
		}
		for tn := 0; tn < 2; tn++ {
			if colSums[tn+1] != o.TenantEvictions(tn) {
				t.Errorf("tenant %d column sums to %d, TenantEvictions reports %d",
					tn, colSums[tn+1], o.TenantEvictions(tn))
			}
		}
		if !anyExternal {
			t.Error("Reclaim/DropCaches recorded no external-row evictions")
		}
		// Cross-tenant cells must be exercised: under a shared budget a
		// tenant's fault evicts the other tenant's coldest pages.
		if mat[1][2] == 0 && mat[2][1] == 0 {
			t.Error("no cross-tenant evictions recorded under a shared budget")
		}
		// The copy is detached from the live matrix.
		mat[0][0] = -99
		if o.InterferenceMatrix()[0][0] == -99 {
			t.Error("InterferenceMatrix returned a live reference")
		}
	})
}

// TestTenantResidencyReconciles checks the owner-side residency view
// against the OS total: tenant resident pages partition ResidentPages().
func TestTenantResidencyReconciles(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 2
	o.CacheBudget = 6
	_, m0 := tenantFile(t, o, 0, 8)
	_, m1 := tenantFile(t, o, 1, 8)
	for p := 0; p < 8; p++ {
		m0.Touch(int64(p) * PageSize)
		m1.Touch(int64(p) * PageSize)
	}
	got := o.TenantResidentPages(0) + o.TenantResidentPages(1)
	if got != o.ResidentPages() {
		t.Fatalf("tenant residency sums to %d, OS holds %d resident pages", got, o.ResidentPages())
	}
	if o.ResidentPages() != 6 {
		t.Fatalf("budget not enforced: %d resident pages", o.ResidentPages())
	}
}

func TestTenantQuotaSelfEvicts(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 1
	f0, m0 := tenantFile(t, o, 0, 16)
	_, m1 := tenantFile(t, o, 1, 16)
	o.SetTenantQuota(0, 4)
	for p := 0; p < 16; p++ {
		m0.Touch(int64(p) * PageSize)
		m1.Touch(int64(p) * PageSize)
	}
	if got := o.TenantResidentPages(0); got != 4 {
		t.Fatalf("tenant 0 holds %d resident pages over a quota of 4", got)
	}
	// No shared budget: the unquota'd tenant keeps its whole working set.
	if got := o.TenantResidentPages(1); got != 16 {
		t.Fatalf("tenant 1 holds %d resident pages, want 16", got)
	}
	// Quota overflow is self-inflicted: every eviction sits in tenant 0's
	// own (evictor, owner) diagonal cell.
	mat := o.InterferenceMatrix()
	if mat[1][1] != o.TenantEvictions(0) || mat[1][1] == 0 {
		t.Fatalf("quota evictions [1][1] = %d, tenant 0 evicted %d", mat[1][1], o.TenantEvictions(0))
	}
	if mat[2][2] != 0 || mat[1][2] != 0 || mat[2][1] != 0 {
		t.Fatalf("quota enforcement leaked cross-tenant evictions: %v", mat)
	}
	if m1.Refaults != 0 {
		t.Fatalf("tenant 1 re-faulted %d pages without pressure", m1.Refaults)
	}
	// The quota evicts tenant 0's coldest pages, so its four most recent
	// survive.
	for p := 0; p < 16; p++ {
		if want := p >= 12; f0.resident[p] != want {
			t.Fatalf("tenant 0 page %d resident = %v, want %v", p, f0.resident[p], want)
		}
	}
}

func TestTenantQuotaRemovable(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 1
	_, m := tenantFile(t, o, 0, 8)
	o.SetTenantQuota(0, 2)
	if got := o.TenantQuota(0); got != 2 {
		t.Fatalf("quota = %d, want 2", got)
	}
	o.SetTenantQuota(0, 0)
	for p := 0; p < 8; p++ {
		m.Touch(int64(p) * PageSize)
	}
	if got := o.TenantResidentPages(0); got != 8 {
		t.Fatalf("removed quota still enforced: %d resident pages", got)
	}
}

func TestSetTenantRejectsNegative(t *testing.T) {
	o := NewOS(SSD())
	f := newTestFile(t, o, 4)
	m := f.Map()
	defer func() {
		if recover() == nil {
			t.Fatal("SetTenant accepted a negative id")
		}
	}()
	m.SetTenant(-1)
}

// TestTenantTaggingPreservesEviction is the fleet back-compat contract:
// tenancy is accounting only — tagging tenants (without quotas) must not
// change which pages fault, evict or re-fault.
func TestTenantTaggingPreservesEviction(t *testing.T) {
	run := func(tag bool) (int64, int64, int64, int) {
		o := NewOS(SSD())
		o.FaultAround = 1
		o.CacheBudget = 3
		f := newTestFile(t, o, 8)
		m := f.Map()
		if tag {
			m.SetTenant(0)
		}
		for pass := 0; pass < 2; pass++ {
			for p := 0; p < 8; p++ {
				m.Touch(int64(p) * PageSize)
			}
			o.ReclaimFraction(50)
		}
		return m.Faults, f.EvictedPages(), f.RefaultedPages(), o.ResidentPages()
	}
	f0, e0, r0, res0 := run(false)
	f1, e1, r1, res1 := run(true)
	if f0 != f1 || e0 != e1 || r0 != r1 || res0 != res1 {
		t.Fatalf("tenancy changed the simulation: untagged %d/%d/%d/%d, tagged %d/%d/%d/%d",
			f0, e0, r0, res0, f1, e1, r1, res1)
	}
}
