// Package policy provides the baseline S-NUCA mapping: the static
// address-interleaved placement modern commercial processors implement
// (Sec. II-A). It is the normalization baseline of every figure in the
// paper and the fallback placement for data no other policy tracks.
package policy

import (
	"tdnuca/internal/machine"
	"tdnuca/internal/sim"
)

// SNUCA places every block address-interleaved across all LLC banks.
type SNUCA struct{}

// NewSNUCA returns the static-interleaving baseline policy.
func NewSNUCA() *SNUCA { return &SNUCA{} }

// Name implements machine.Policy.
func (*SNUCA) Name() string { return "S-NUCA" }

// LookupPenalty implements machine.Policy: S-NUCA needs no lookup
// structure; the destination bank is a pure function of the address.
func (*SNUCA) LookupPenalty() int { return 0 }

// UsesRRT implements machine.Policy.
func (*SNUCA) UsesRRT() bool { return false }

// Place implements machine.Policy. Under injected bank retirements
// (internal/faults) no fix-up is needed here: the interleaved mapping is
// resolved through the machine's retirement map at access time, so a
// block whose home bank died lands on that bank's deterministic survivor
// without the policy ever knowing.
func (*SNUCA) Place(machine.AccessContext) (machine.Placement, sim.Cycles) {
	return machine.Placement{Kind: machine.Interleaved}, 0
}
