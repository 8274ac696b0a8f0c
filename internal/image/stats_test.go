package image

import (
	"testing"

	"nimage/internal/graal"
	"nimage/internal/profiler"
	"nimage/internal/workloads"
)

// TestStatsJudgedTime pins the one rule for which simulated time a run is
// judged by: the time to first response when the program responded, the
// total otherwise. A profiling run reports that time, and a service's
// compute time up to its response.
func TestStatsJudgedTime(t *testing.T) {
	for _, tc := range []struct {
		name          string
		stopOnRespond bool
	}{{"Sieve", false}, {"micronaut", true}, {"micronaut", false}} {
		w, err := workloads.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		img, err := Build(w.Build(), regularOpts())
		if err != nil {
			t.Fatal(err)
		}
		proc, err := img.NewProcess(testOS(), vmHooksNone())
		if err != nil {
			t.Fatal(err)
		}
		proc.Machine.StopOnRespond = tc.stopOnRespond
		if err := proc.Run(w.Args...); err != nil {
			t.Fatal(err)
		}
		st := proc.Stats()
		proc.Close()
		want := st.Total
		if w.Service {
			want = st.TimeToResponse
		}
		if st.Judged != want || st.Judged <= 0 {
			t.Errorf("%s (stop on respond %v): judged %v, want %v (total %v)", tc.name, tc.stopOnRespond, st.Judged, want, st.Total)
		}
		if w.Service && !tc.stopOnRespond && st.Judged >= st.Total {
			t.Errorf("%s run past its response: judged %v not below total %v", tc.name, st.Judged, st.Total)
		}
	}

	w, err := workloads.ByName("micronaut")
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := RunProfile(w.Build(), PipelineOptions{
		Compiler: graal.DefaultConfig(), InstrumentedSeed: 3,
		Mode: profiler.ModeFor(true), Args: w.Args, Service: true,
	}, graal.InstrCU)
	if err != nil {
		t.Fatal(err)
	}
	if r := prof.Run; r.CPUTime <= 0 || r.CPUTime >= r.Time || r.Time >= r.Total {
		t.Errorf("service profiling run: cpu %v, time %v, total %v; want 0 < cpu < time < total", r.CPUTime, r.Time, r.Total)
	}
}
