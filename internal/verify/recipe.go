package verify

import (
	"bytes"
	"fmt"

	"nimage/internal/image"
)

// recipeChecks round-trips an image through its portable recipe — capture
// (RecipeOf), serialize (WriteRecipe), parse (ReadRecipe), rebuild (Bake)
// — and asserts the baked image reproduces the original layout
// bit-identically. Builds are deterministic functions of the recipe, so
// the .nimg container must preserve enough to reconstruct every CU and
// object offset exactly.
func recipeChecks(img *image.Image) []layoutCheck {
	var cs []layoutCheck
	add := func(name, fail string) {
		cs = append(cs, layoutCheck{name: name, fail: fail})
	}

	var buf bytes.Buffer
	if err := image.WriteRecipe(&buf, image.RecipeOf(img)); err != nil {
		add("recipe-roundtrip-codec", fmt.Sprintf("serializing recipe: %v", err))
		return cs
	}
	r, err := image.ReadRecipe(&buf)
	if err != nil {
		add("recipe-roundtrip-codec", fmt.Sprintf("parsing recipe: %v", err))
		return cs
	}
	baked, err := r.Bake()
	if err != nil {
		add("recipe-roundtrip-codec", fmt.Sprintf("baking recipe: %v", err))
		return cs
	}
	add("recipe-roundtrip-codec", "")

	secFail := ""
	if baked.TextSection != img.TextSection || baked.HeapSection != img.HeapSection || baked.FileSize != img.FileSize {
		secFail = fmt.Sprintf("sections differ: text %+v vs %+v, heap %+v vs %+v, size %d vs %d",
			img.TextSection, baked.TextSection, img.HeapSection, baked.HeapSection,
			img.FileSize, baked.FileSize)
	}
	add("recipe-roundtrip-sections", secFail)

	cuFail := ""
	if len(baked.CULayout) != len(img.CULayout) {
		cuFail = fmtCount("CU counts differ: %d vs %d", len(img.CULayout), len(baked.CULayout))
	} else {
		off2 := make(map[string]int64, len(baked.CULayout))
		for _, cu := range baked.CULayout {
			off2[cu.Signature()] = baked.CUOffset(cu)
		}
		for _, cu := range img.CULayout {
			if got, ok := off2[cu.Signature()]; !ok || got != img.CUOffset(cu) {
				cuFail = fmt.Sprintf("CU %s moved: %d vs %d", cu.Signature(), img.CUOffset(cu), got)
				break
			}
		}
	}
	add("recipe-roundtrip-cu-offsets", cuFail)

	objFail := ""
	if len(baked.ObjLayout) != len(img.ObjLayout) {
		objFail = fmtCount("object counts differ: %d vs %d", len(img.ObjLayout), len(baked.ObjLayout))
	} else {
		for i, o := range img.ObjLayout {
			b := baked.ObjLayout[i]
			off, boff := img.Snapshot.Offset(o), baked.Snapshot.Offset(b)
			if boff != off || b.TypeName() != o.TypeName() {
				objFail = fmt.Sprintf("object %d differs: %s@%d vs %s@%d",
					i, o.TypeName(), off, b.TypeName(), boff)
				break
			}
		}
	}
	add("recipe-roundtrip-object-offsets", objFail)
	return cs
}
