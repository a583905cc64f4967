package exectest

import "repro/internal/db/executor"

// Run executes a plan to completion and returns copies of the result
// rows (the plan's own output tuple is a reused slot). The plan is
// always closed — including when Open or Next fail partway — so a
// test's plan never leaks scans or pins; node Close methods are
// idempotent, making the unconditional defer safe even when Open
// failed after opening only some children.
func Run(plan executor.Node) (out []executor.Tuple, err error) {
	defer func() {
		if cerr := plan.Close(); err == nil {
			err = cerr
		}
	}()
	if err = plan.Open(); err != nil {
		return nil, err
	}
	var slab executor.Slab
	for {
		tup, ok, nerr := plan.Next()
		if nerr != nil {
			return nil, nerr
		}
		if !ok {
			return out, nil
		}
		out = append(out, slab.Copy(tup))
	}
}
