package ir_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"nimage/internal/ir"
)

// encodedProgramDigests are the SHA-256 digests of EncodeProgram over
// every workload program. They pin the NPRG v1 byte format: a change to
// the in-memory instruction layout must not move a byte on disk.
var encodedProgramDigests = map[string]string{
	"Bounce":      "2d26ef293ff23f49bc94f62ac0245137d47855c093773e6528600ae81fc6e0f4",
	"CD":          "f8e1bb5c3fd846be943af0d59e0f969eeeb55bd2a70a252649586186c869268a",
	"DeltaBlue":   "001143461c95afca9295288e5393b3f8e8a90841a466f8f2262f0325e130752f",
	"Havlak":      "423cabe4d4dc8c3540315e766efde7e9055e2cf3c01236d4b66b05a978d4504a",
	"Json":        "2edc96b3221db80a2dbd4c382dbb492ad728d192b7330fc8840bfafe562575e6",
	"List":        "afaa6ebf67e0b762860f23c486cbb0938741744802cd98a3af2c962a1bbdbda4",
	"Mandelbrot":  "d478a45246187bf28d3f472173882286f3356814dedd29a6de46c23edfba7695",
	"NBody":       "d00b8fcb320e481347945f9b9df736a669d4331eeed36b202a32573fb06fec59",
	"Permute":     "bd9fe75950365818f06ab39ed19a3e0beabeb56782d807888c1e73b000cbc74d",
	"Queens":      "2ca469634094c78d4803327f7d5ce953c98b1216b91ccdd7358345483724cb63",
	"Richards":    "acb3194171b5e9153ea86ebfe3dd34b116b0fac3e0c9a12209bda81a06e9f362",
	"Sieve":       "5a562f307a02335008493ea5526d191d7c43e4d8ca39845b151ef0d39119b913",
	"Storage":     "68fb29bc9fe12dd4126629d60dd10fe263d8d36a46534d69417c52f154ae7967",
	"Towers":      "70ddfd155c64ed68c954c852c8a359f946f08a5732f5f419c8c252a087a086f7",
	"micronaut":   "cb609e3333ed4ebc7598423a0eff0413280e320c31ce1ed3be37205bb8cd0037",
	"quarkus":     "b2ea9220c49428cfc23a9efec54fe89864913e5022ffa8ae531f899624715e8a",
	"spring":      "d0e1ae461cab48832a5d72e64a3cd58d7512060f6bbc02b592ef5480a6909c45",
	"serve-api":   "4e19f07b2615aa47db4f86991360cf17e6a40bc67dc11dc2cc112d1c2493cff6",
	"serve-cache": "3e0989b12a191871b370ec3bf85a08da181b7307a299d08b4e0bde6667f0e10b",
}

// TestEncodedProgramsPinned: every workload program encodes to the bytes
// pinned in encodedProgramDigests.
func TestEncodedProgramsPinned(t *testing.T) {
	for _, p := range everyProgram() {
		var buf bytes.Buffer
		if err := ir.EncodeProgram(&buf, p); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		if want := encodedProgramDigests[p.Name]; got != want {
			t.Errorf("%s: encoding SHA-256 %s, want %s", p.Name, got, want)
		}
	}
}
