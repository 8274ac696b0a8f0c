package image

import (
	"bytes"
	"reflect"
	"testing"

	"nimage/internal/core"
	"nimage/internal/graal"
)

func TestRecipeRoundTripRegular(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRecipe(&buf, RecipeOf(img)); err != nil {
		t.Fatal(err)
	}
	r, err := ReadRecipe(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindRegular || r.BuildSeed != 1 || r.Compiler != graal.DefaultConfig() {
		t.Errorf("recipe fields: %+v", r)
	}
	baked, err := r.Bake()
	if err != nil {
		t.Fatal(err)
	}
	// Determinism: the baked image matches the original layout exactly.
	if baked.TextSection != img.TextSection || baked.HeapSection != img.HeapSection || baked.FileSize != img.FileSize {
		t.Errorf("sections differ:\n%+v %+v\n%+v %+v", baked.TextSection, baked.HeapSection, img.TextSection, img.HeapSection)
	}
	if len(baked.CULayout) != len(img.CULayout) {
		t.Fatalf("CU counts differ")
	}
	for i := range img.CULayout {
		if baked.CULayout[i].Signature() != img.CULayout[i].Signature() {
			t.Fatalf("CU %d: %s vs %s", i, baked.CULayout[i].Signature(), img.CULayout[i].Signature())
		}
	}
	if len(baked.ObjLayout) != len(img.ObjLayout) {
		t.Fatalf("object counts differ")
	}
	for i := range img.ObjLayout {
		if baked.Snapshot.Offset(baked.ObjLayout[i]) != img.Snapshot.Offset(img.ObjLayout[i]) ||
			baked.ObjLayout[i].TypeName() != img.ObjLayout[i].TypeName() {
			t.Fatalf("object %d differs", i)
		}
	}
}

func TestRecipeRoundTripOptimized(t *testing.T) {
	p := buildApp(t)
	res, err := BuildOptimized(p, PipelineOptions{
		Compiler:         graal.DefaultConfig(),
		Strategy:         core.StrategyCombined,
		InstrumentedSeed: 7,
		OptimizedSeed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRecipe(&buf, RecipeOf(res.Optimized)); err != nil {
		t.Fatal(err)
	}
	r, err := ReadRecipe(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.HeapStrategyName != core.StrategyHeapPath {
		t.Errorf("strategy name = %q", r.HeapStrategyName)
	}
	if !reflect.DeepEqual(r.CodeProfile, res.CodeProfile) {
		t.Error("code profile not preserved")
	}
	if !reflect.DeepEqual(r.HeapProfile, res.HeapProfile) {
		t.Error("heap profile not preserved")
	}
	baked, err := r.Bake()
	if err != nil {
		t.Fatal(err)
	}
	if baked.CodeOrderStats.Matched != res.Optimized.CodeOrderStats.Matched {
		t.Errorf("code matching differs: %d vs %d",
			baked.CodeOrderStats.Matched, res.Optimized.CodeOrderStats.Matched)
	}
	if baked.HeapMatchStats.MatchedObjects != res.Optimized.HeapMatchStats.MatchedObjects {
		t.Errorf("heap matching differs")
	}
	for i := range res.Optimized.CULayout {
		if baked.CULayout[i].Signature() != res.Optimized.CULayout[i].Signature() {
			t.Fatalf("optimized CU layout differs at %d", i)
		}
	}
}

// TestEveryRegisteredStrategyBakesAndRoundTrips is the registry's
// anti-drift guarantee: every strategy core.Registry lists — including
// the graph strategies, which record their own affinity input — bakes
// standalone through the full pipeline, and its .nimg recipe re-bakes to
// the identical layout.
func TestEveryRegisteredStrategyBakesAndRoundTrips(t *testing.T) {
	p := buildApp(t)
	for _, info := range core.Registry() {
		res, err := BuildOptimized(p, PipelineOptions{
			Compiler:         graal.DefaultConfig(),
			Strategy:         info.Name,
			InstrumentedSeed: 7,
			OptimizedSeed:    9,
		})
		if err != nil {
			t.Fatalf("%s: bake: %v", info.Name, err)
		}
		if info.Text && len(res.CodeProfile) == 0 {
			t.Errorf("%s: text strategy produced an empty code profile", info.Name)
		}
		if info.Graph && len(res.HeapProfile) != 0 {
			t.Errorf("%s: graph strategy produced a heap profile", info.Name)
		}
		var buf bytes.Buffer
		if err := WriteRecipe(&buf, RecipeOf(res.Optimized)); err != nil {
			t.Fatalf("%s: write recipe: %v", info.Name, err)
		}
		r, err := ReadRecipe(&buf)
		if err != nil {
			t.Fatalf("%s: read recipe: %v", info.Name, err)
		}
		baked, err := r.Bake()
		if err != nil {
			t.Fatalf("%s: re-bake: %v", info.Name, err)
		}
		if len(baked.CULayout) != len(res.Optimized.CULayout) {
			t.Fatalf("%s: CU counts differ", info.Name)
		}
		for i := range res.Optimized.CULayout {
			if baked.CULayout[i].Signature() != res.Optimized.CULayout[i].Signature() {
				t.Fatalf("%s: CU layout differs at %d", info.Name, i)
			}
		}
		for i := range res.Optimized.ObjLayout {
			if baked.Snapshot.Offset(baked.ObjLayout[i]) != res.Optimized.Snapshot.Offset(res.Optimized.ObjLayout[i]) {
				t.Fatalf("%s: object layout differs at %d", info.Name, i)
			}
		}
	}
}

func TestRecipeUnknownStrategyRejected(t *testing.T) {
	p := buildApp(t)
	r := Recipe{
		Program: p, Kind: KindOptimized, Compiler: graal.DefaultConfig(),
		HeapStrategyName: "nope", HeapProfile: []uint64{1},
	}
	if _, err := r.Bake(); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestReadRecipeRejectsGarbage(t *testing.T) {
	if _, err := ReadRecipe(bytes.NewReader([]byte("XXXXgarbage"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadRecipe(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated after the header fields.
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRecipe(&buf, RecipeOf(img)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRecipe(bytes.NewReader(buf.Bytes()[:40])); err == nil {
		t.Error("truncated recipe accepted")
	}
}
