package image

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/ir"
	"nimage/internal/profiler"
)

// Recipe is the portable form of a build: the program plus everything
// needed to rebuild the image bit-identically — build kind, seed, compiler
// configuration, and (for optimized builds) the ordering profiles and the
// identity-strategy name. Because builds are deterministic functions of
// the recipe, serializing the recipe *is* serializing the image; Bake
// reconstructs it.
type Recipe struct {
	Program *ir.Program
	// Kind, Instr, Mode, BuildSeed, MaxPaths as in Options.
	Kind      BuildKind
	Instr     graal.Instrumentation
	Mode      profiler.DumpMode
	BuildSeed uint64
	MaxPaths  uint64
	Compiler  graal.Config
	// CodeProfile / HeapProfile / HeapStrategyName configure optimized
	// builds; HeapStrategyName also names the strategy whose object IDs a
	// heap-instrumented build records.
	CodeProfile      []string
	HeapProfile      []uint64
	HeapStrategyName string
}

// RecipeOf captures the recipe of a built image.
func RecipeOf(img *Image) Recipe {
	r := Recipe{
		Program:     img.Program,
		Kind:        img.Opts.Kind,
		Instr:       img.Opts.Instr,
		Mode:        img.Opts.Mode,
		BuildSeed:   img.Opts.BuildSeed,
		MaxPaths:    img.Opts.MaxPaths,
		Compiler:    img.Opts.Compiler,
		CodeProfile: img.Opts.CodeProfile,
		HeapProfile: img.Opts.HeapProfile,
	}
	if img.Opts.HeapStrategy != nil {
		r.HeapStrategyName = img.Opts.HeapStrategy.Name()
	}
	return r
}

// Bake rebuilds the image described by the recipe.
func (r Recipe) Bake() (*Image, error) {
	opts := Options{
		Kind:        r.Kind,
		Instr:       r.Instr,
		Mode:        r.Mode,
		BuildSeed:   r.BuildSeed,
		MaxPaths:    r.MaxPaths,
		Compiler:    r.Compiler,
		CodeProfile: r.CodeProfile,
		HeapProfile: r.HeapProfile,
	}
	if r.HeapStrategyName != "" {
		opts.HeapStrategy = core.HeapStrategyByName(r.HeapStrategyName)
		if opts.HeapStrategy == nil {
			return nil, fmt.Errorf("image: recipe names unknown heap strategy %q", r.HeapStrategyName)
		}
	}
	return Build(r.Program, opts)
}

const (
	recipeMagic   = "NIMG"
	recipeVersion = 1
)

// WriteRecipe serializes the recipe to w (the .nimg container format).
func WriteRecipe(w io.Writer, r Recipe) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(recipeMagic); err != nil {
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	u := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		_, err := bw.Write(tmp[:n])
		return err
	}
	s := func(v string) error {
		if err := u(uint64(len(v))); err != nil {
			return err
		}
		_, err := bw.WriteString(v)
		return err
	}
	cfg := r.Compiler
	for _, v := range []uint64{
		recipeVersion, uint64(r.Kind), uint64(r.Instr), uint64(r.Mode),
		r.BuildSeed, r.MaxPaths,
		uint64(cfg.InlineSmallSize), uint64(cfg.CUBudget), uint64(cfg.MaxInlineDepth),
		uint64(cfg.SaturationThreshold), uint64(cfg.PGOBonus),
		uint64(cfg.ProbeCUEntry), uint64(cfg.ProbeMethodEntry),
		uint64(cfg.ProbePerBlock), uint64(cfg.ProbePerAccess), uint64(cfg.FoldPercent),
	} {
		if err := u(v); err != nil {
			return err
		}
	}
	if err := s(r.HeapStrategyName); err != nil {
		return err
	}
	if err := u(uint64(len(r.CodeProfile))); err != nil {
		return err
	}
	for _, sig := range r.CodeProfile {
		if err := s(sig); err != nil {
			return err
		}
	}
	if err := u(uint64(len(r.HeapProfile))); err != nil {
		return err
	}
	for _, id := range r.HeapProfile {
		if err := u(id); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return ir.EncodeProgram(w, r.Program)
}

// ReadRecipe deserializes a recipe from r.
func ReadRecipe(rd io.Reader) (Recipe, error) {
	br := bufio.NewReader(rd)
	var out Recipe
	head := make([]byte, len(recipeMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return out, fmt.Errorf("image: reading recipe header: %w", err)
	}
	if string(head) != recipeMagic {
		return out, fmt.Errorf("image: bad recipe magic %q", head)
	}
	u := func() (uint64, error) { return binary.ReadUvarint(br) }
	s := func() (string, error) {
		n, err := u()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("image: implausible string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	ver, err := u()
	if err != nil {
		return out, err
	}
	if ver != recipeVersion {
		return out, fmt.Errorf("image: unsupported recipe version %d", ver)
	}
	var fields [15]uint64
	for i := range fields {
		if fields[i], err = u(); err != nil {
			return out, err
		}
	}
	if fields[0] > uint64(KindOptimized) {
		return out, fmt.Errorf("image: recipe build kind %d out of range", fields[0])
	}
	if fields[1] > uint64(graal.InstrHeap) {
		return out, fmt.Errorf("image: recipe instrumentation %d out of range", fields[1])
	}
	if fields[2] > uint64(profiler.MemoryMapped) {
		return out, fmt.Errorf("image: recipe dump mode %d out of range", fields[2])
	}
	out.Kind = BuildKind(fields[0])
	out.Instr = graal.Instrumentation(fields[1])
	out.Mode = profiler.DumpMode(fields[2])
	out.BuildSeed = fields[3]
	out.MaxPaths = fields[4]
	out.Compiler = graal.Config{
		InlineSmallSize:     int(fields[5]),
		CUBudget:            int(fields[6]),
		MaxInlineDepth:      int(fields[7]),
		SaturationThreshold: int(fields[8]),
		PGOBonus:            int(fields[9]),
		ProbeCUEntry:        int(fields[10]),
		ProbeMethodEntry:    int(fields[11]),
		ProbePerBlock:       int(fields[12]),
		ProbePerAccess:      int(fields[13]),
		FoldPercent:         int(fields[14]),
	}
	if out.HeapStrategyName, err = s(); err != nil {
		return out, err
	}
	ncode, err := u()
	if err != nil {
		return out, err
	}
	if ncode > 1<<22 {
		return out, fmt.Errorf("image: implausible code-profile size %d", ncode)
	}
	for i := uint64(0); i < ncode; i++ {
		sig, err := s()
		if err != nil {
			return out, err
		}
		out.CodeProfile = append(out.CodeProfile, sig)
	}
	nheap, err := u()
	if err != nil {
		return out, err
	}
	if nheap > 1<<22 {
		return out, fmt.Errorf("image: implausible heap-profile size %d", nheap)
	}
	for i := uint64(0); i < nheap; i++ {
		id, err := u()
		if err != nil {
			return out, err
		}
		out.HeapProfile = append(out.HeapProfile, id)
	}
	// The program follows; its codec needs the remaining bytes, including
	// any the bufio reader already buffered.
	out.Program, err = ir.DecodeProgram(io.MultiReader(bytesLeft(br), rd))
	if err != nil {
		return out, err
	}
	return out, nil
}

// bytesLeft drains a bufio.Reader's buffered bytes as a reader.
func bytesLeft(br *bufio.Reader) io.Reader {
	buf := make([]byte, br.Buffered())
	io.ReadFull(br, buf) //nolint:errcheck // buffered bytes cannot fail
	return bytes.NewReader(buf)
}
