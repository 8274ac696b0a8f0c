package main

import (
	"reflect"
	"testing"

	"nimage/internal/obs/attrib"
)

// TestCPUByModule buckets a synthetic profile: a sample goes to the module
// of its innermost internal frame, runtime frames above it
// notwithstanding, and to the runtime bucket when it has none.
func TestCPUByModule(t *testing.T) {
	p := &attrib.Profile{
		SampleTypes: []attrib.ProfValueType{{Type: "samples", Unit: "count"}, {Type: "cpu", Unit: "nanoseconds"}},
		Samples: []attrib.ProfSample{
			{Stack: []string{"nimage/internal/vm.(*Machine).runQuantum", "nimage/internal/image.(*Process).Run", "main.main"}, Values: []int64{1, 10}},
			{Stack: []string{"runtime.mallocgc", "nimage/internal/osim.(*Mapping).Touch", "nimage/internal/vm.(*Machine).exec"}, Values: []int64{2, 20}},
			{Stack: []string{"nimage/internal/obs/attrib.(*Recorder).OnFault"}, Values: []int64{1, 7}},
			{Stack: []string{"runtime.gcBgMarkWorker"}, Values: []int64{1, 5}},
			{Stack: []string{"encoding/json.Marshal", "main.runOne"}, Values: []int64{1, 3}},
			{Stack: []string{"nimage/internal/vm.(*Machine).exec"}, Values: []int64{1, 4}},
		},
	}
	got, err := cpuByModule(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"vm": 14, "osim": 20, "obs": 7, runtimeModule: 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cpuByModule = %v, want %v", got, want)
	}
	if _, err := cpuByModule(&attrib.Profile{SampleTypes: []attrib.ProfValueType{{Type: "samples"}}}); err == nil {
		t.Error("profile without a cpu sample type accepted")
	}
}

func TestSpanLayer(t *testing.T) {
	for name, want := range map[string]string{
		"image.optimized.reachability":        "graal.reachability_frac",
		"image.instrumented.snapshot_heap":    "heap.snapshot_frac",
		"pipeline.cu+heap path.profiling_run": "profiler.profiling_run_frac",
		"pipeline.incremental id.postprocess": "postproc.postprocess_frac",
		"vm.Run":                              "vm.run_frac",
		"image.BuildOptimized":                "",
		"eval.MeasureServe":                   "",
	} {
		if got, _ := spanLayer(name); got != want {
			t.Errorf("spanLayer(%q) = %q, want %q", name, got, want)
		}
	}
}
