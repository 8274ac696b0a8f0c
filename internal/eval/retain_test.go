//go:build go1.24

package eval

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"nimage/internal/osim"
)

// TestFleetReleasesItsOSes checks that no simulated OS outlives the run
// that made it. The harness keeps the images it baked for reuse; an image
// that remembered every OS it ran on would keep each past page cache
// reachable.
func TestFleetReleasesItsOSes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	var mu sync.Mutex
	var made []weak.Pointer[osim.OS]
	h.onNewOS = func(o *osim.OS) {
		mu.Lock()
		made = append(made, weak.Make(o))
		mu.Unlock()
	}
	if _, err := h.MeasureFleet(fleetTestConfig()); err != nil {
		t.Fatal(err)
	}
	if len(made) == 0 {
		t.Fatal("MeasureFleet made no OS")
	}
	runtime.GC()
	for i, wp := range made {
		if wp.Value() != nil {
			t.Errorf("OS %d of %d still reachable after MeasureFleet returned", i, len(made))
		}
	}
	runtime.KeepAlive(h)
}
