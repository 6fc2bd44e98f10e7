// Package analysis is the tdnuca-lint static-analysis suite: three
// stdlib-only passes (go/parser + go/types, no external tooling) that
// guard the simulator's core invariants at the source level.
//
//	determinism — simulation code must be bit-reproducible: no unordered
//	              map iteration feeding state or output, no wall clock,
//	              no math/rand, no stray goroutines; the goroutine
//	              allowlist is itself verified (stale entries fail).
//	hotpath     — //tdnuca:hotpath functions must stay allocation-free,
//	              transitively (the PR-2 zero-allocation property).
//	units       — architectural latencies live in internal/arch; raw
//	              integer literals as sim.Cycles elsewhere are flagged.
//
// Suppressions use //tdnuca:allow(<rule>) <reason> directives; a
// suppression without a reason is itself a finding, and so is one that
// suppresses nothing. See DESIGN.md §9.
package analysis

// Run loads the module rooted at root and applies every pass, returning
// the combined, position-sorted report.
func Run(root string) (*Report, error) {
	prog, err := Load(root)
	if err != nil {
		return nil, err
	}
	dirs := collectDirectives(prog)
	var findings []Finding
	findings = append(findings, dirs.findings...)
	findings = append(findings, determinismPass(prog, dirs)...)
	findings = append(findings, hotpathPass(prog, dirs)...)
	findings = append(findings, unitsPass(prog, dirs)...)
	// After every pass has had its chance to consult a suppression:
	// anything still unused is dead weight.
	findings = append(findings, dirs.staleAllows()...)
	return newReport(prog.Module, findings), nil
}
