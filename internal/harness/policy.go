package harness

import (
	"fmt"
	"strings"

	"tdnuca/internal/arch"
	"tdnuca/internal/core"
	"tdnuca/internal/machine"
	"tdnuca/internal/policy"
	"tdnuca/internal/rnuca"
	"tdnuca/internal/taskrt"
)

// installFunc puts a kind's placement policy on a machine and returns
// the runtime hooks, the TD-NUCA manager and the R-NUCA policy it
// created, each nil when the kind does not use it.
type installFunc func(m *machine.Machine, eagerFlush bool) (taskrt.Hooks, *core.Manager, *rnuca.RNUCA)

// policyRow is one NUCA configuration of the evaluation.
type policyRow struct {
	kind PolicyKind
	// aliases are accepted besides the display name; ParsePolicy
	// matches both case-insensitively.
	aliases [3]string
	// needsRRT: the kind's placement decisions depend on the RRT, so a
	// machine built without RRT entries cannot run it.
	needsRRT bool
	install  installFunc
}

// policies is the one table of the evaluation's NUCA configurations:
// every spelling a user may type, every validation and every
// construction reads its row, so adding a configuration is one row.
var policies = [...]policyRow{
	{SNUCA, [3]string{"s", "snuca", "s-nuca"}, false, installSNUCA},
	{RNUCA, [3]string{"r", "rnuca", "r-nuca"}, false, installRNUCA},
	{TDNUCA, [3]string{"td", "tdnuca", "td-nuca"}, true, installManager(core.Full, true)},
	{TDBypassOnly, [3]string{"bypass", "td-bypass", "tdnuca-bypass"}, true, installManager(core.BypassOnly, true)},
	// The runtime-only variant (Sec. V-E) keeps S-NUCA placement: its
	// manager does the runtime bookkeeping but never executes the ISA.
	{TDNoISA, [3]string{"noisa", "td-noisa", "tdnuca-noisa"}, true, installManager(core.NoISA, false)},
}

func installSNUCA(m *machine.Machine, _ bool) (taskrt.Hooks, *core.Manager, *rnuca.RNUCA) {
	m.SetPolicy(policy.NewSNUCA())
	return nil, nil, nil
}

func installRNUCA(m *machine.Machine, _ bool) (taskrt.Hooks, *core.Manager, *rnuca.RNUCA) {
	rn := rnuca.New(m)
	m.SetPolicy(rn)
	return nil, nil, rn
}

// installManager builds a TD-NUCA manager of the given variant as the
// runtime hooks, placing blocks itself when places is set and leaving
// placement to S-NUCA otherwise.
func installManager(variant core.Variant, places bool) installFunc {
	return func(m *machine.Machine, eagerFlush bool) (taskrt.Hooks, *core.Manager, *rnuca.RNUCA) {
		mgr := core.NewManager(m, variant)
		mgr.EagerFlush = eagerFlush
		if places {
			m.SetPolicy(mgr)
		} else {
			m.SetPolicy(policy.NewSNUCA())
		}
		return mgr, mgr, nil
	}
}

// ParsePolicy maps a user's spelling of a policy to its kind: the
// display name ("TD-NUCA (Bypass Only)") or one of its aliases ("td",
// "tdnuca-bypass", ...), in any letter case.
func ParsePolicy(name string) (PolicyKind, bool) {
	for i := range policies {
		p := &policies[i]
		if strings.EqualFold(name, string(p.kind)) {
			return p.kind, true
		}
		for _, a := range p.aliases {
			if strings.EqualFold(name, a) {
				return p.kind, true
			}
		}
	}
	return "", false
}

// lookupPolicy returns kind's row, or the error naming an unknown kind.
func lookupPolicy(kind PolicyKind) (*policyRow, error) {
	for i := range policies {
		if policies[i].kind == kind {
			return &policies[i], nil
		}
	}
	return nil, fmt.Errorf("harness: unknown policy %q", kind)
}

// checkRRT rejects a policy/architecture combination that cannot work:
// a kind whose placement decisions depend on the RRT needs at least one
// RRT entry per core (an RRT degraded to zero entries mid-run by a fault
// is a different thing — the fallback path handles that; a machine
// *built* without one is a misconfiguration).
func (p *policyRow) checkRRT(a *arch.Config) error {
	if p.needsRRT && a.RRTEntries <= 0 {
		return fmt.Errorf("harness: policy %s requires RRTEntries > 0 (got %d)", p.kind, a.RRTEntries)
	}
	return nil
}

// InstallPolicy builds kind's NUCA configuration on m: it installs the
// placement policy and returns the runtime hooks (hand them to
// taskrt.New), the TD-NUCA manager and the R-NUCA policy, each nil when
// the kind does not use it. eagerFlush reaches every manager it builds.
// An unknown kind, or one that needs the RRT on a machine built without
// RRT entries, is an error and leaves m untouched.
func InstallPolicy(kind PolicyKind, m *machine.Machine, eagerFlush bool) (taskrt.Hooks, *core.Manager, *rnuca.RNUCA, error) {
	p, err := lookupPolicy(kind)
	if err == nil {
		err = p.checkRRT(m.Cfg)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	hooks, mgr, rn := p.install(m, eagerFlush)
	return hooks, mgr, rn, nil
}
