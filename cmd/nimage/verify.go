package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nimage"
	"nimage/internal/obs"
)

// cmdVerify runs the end-to-end equivalence verifier: differential builds
// per workload × strategy plus the metamorphic layout invariants. It exits
// non-zero when any check diverges.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	names := fs.String("workloads", "", "comma-separated workload names (empty = Bounce,micronaut)")
	strategies := fs.String("strategies", "", "comma-separated strategies (empty = all)")
	seed := fs.Uint64("seed", 1, "build seed of the baseline/optimized builds (instrumented uses seed+100)")
	seeds := fs.Int("seeds", 0, "additionally verify N seeded random generated programs")
	out := fs.String("o", "", "also write the verification report JSON here")
	quiet := fs.Bool("q", false, "suppress per-build progress lines")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := nimage.VerifyOptions{BaseSeed: *seed, Seeds: *seeds}
	if !*quiet {
		opts.Log = os.Stderr
	}
	if *names != "" {
		for _, n := range strings.Split(*names, ",") {
			w, err := nimage.WorkloadByName(strings.TrimSpace(n))
			if err != nil {
				return err
			}
			opts.Workloads = append(opts.Workloads, w)
		}
	}
	if *strategies != "" {
		for _, s := range strings.Split(*strategies, ",") {
			opts.Strategies = append(opts.Strategies, strings.TrimSpace(s))
		}
	}

	rep, err := nimage.Verify(opts)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeWith(*out, func(f *os.File) error { return obs.WriteDoc(f, rep) }); err != nil {
			return err
		}
	}
	fmt.Println(rep.Summary())
	if !rep.OK() {
		for _, d := range rep.Divergences {
			fmt.Println(" ", d)
		}
		return fmt.Errorf("%d divergences", len(rep.Divergences))
	}
	return nil
}
