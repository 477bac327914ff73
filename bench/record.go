package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"satalloc/internal/core"
)

// recordExpected solves every batch instance once with the sequential
// solver and proof logging, so every UNSAT probe, the final optimality
// probe included, is replayed by the in-repo DRAT checker before the
// verdict is kept; feasible answers must also pass checkAllocation. The
// reference therefore does not rest on the solver configuration under
// test.
func recordExpected(path string, log io.Writer) error {
	f := expectedFile{
		Method:    "core.Solve with Config{Proof: true, Workers: 1}: every UNSAT probe replayed by the DRAT checker; feasible allocations pass rta.Analyze and sim",
		Instances: map[string]verdict{},
	}
	for _, in := range append(paperInstances(), frontierInstances()...) {
		t0 := time.Now()
		sol, err := core.Solve(in.sys, core.Config{Objective: in.obj, Workers: 1, Proof: true})
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		if sol.Certificate == nil {
			return fmt.Errorf("%s: solve returned no proof certificate", in.name)
		}
		cert := sol.Certificate
		switch st := sol.Status.String(); {
		case st != "optimal" && st != "infeasible":
			return fmt.Errorf("%s: verdict %s is not exact", in.name, st)
		case st == "infeasible" && cert.Probes+cert.RootConflicts == 0:
			return fmt.Errorf("%s: infeasible verdict without a certified refutation", in.name)
		}
		if sol.Feasible {
			if err := checkAllocation(in.sys, in.obj, sol.Allocation, sol.Cost); err != nil {
				return fmt.Errorf("%s: %w", in.name, err)
			}
		}
		f.Instances[in.name] = verdict{Status: sol.Status.String(), Cost: sol.Cost}
		fmt.Fprintf(log, "%-12s %-10s cost %3d, certified %d UNSAT probes and %d root refutations, %v\n",
			in.name, sol.Status, sol.Cost, cert.Probes, cert.RootConflicts, time.Since(t0).Round(time.Millisecond))
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
