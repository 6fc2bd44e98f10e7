package machine

import (
	"fmt"
	"io"
	"os"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/cache"
)

// SetWatchBlock arms the per-machine coherence trace: when pa is a block
// base address (and CheckInvariants is on), every verifier-visible event
// on that block is printed to w — a debugging aid for tracing coherence
// through the policies. A nil w means stderr; pa 0 disarms the trace.
//
// The watch state is a Machine field, not a package-level variable, so
// machines running concurrently (harness.RunMany's worker pool) never
// share or race on it.
func (m *Machine) SetWatchBlock(pa amath.Addr, w io.Writer) {
	if w == nil {
		w = os.Stderr
	}
	m.watchBlock, m.watchW = pa, w
}

// watch prints one coherence-trace event when the block is watched.
// (The hot-path walk stops at the verify* callers, so no allow(alloc)
// is needed here; the stale-suppression lint enforces that.)
func (m *Machine) watch(pa amath.Addr, format string, args ...any) {
	if m.watchBlock != 0 && pa == m.watchBlock {
		fmt.Fprintf(m.watchW, "watch %#x: %s\n", uint64(pa), fmt.Sprintf(format, args...))
	}
}

// verifier is the functional memory checker enabled by
// Config.CheckInvariants. It carries a version number per block: every
// core write increments the golden version, and every location that can
// hold the block (each L1, each bank, memory) tracks the version of the
// copy it holds. Serving a read from a copy whose version is behind the
// golden one means a policy lost a flush or invalidation — exactly the
// class of bug replication-based NUCA schemes are prone to.
type verifier struct {
	golden map[amath.Addr]uint64
	mem    map[amath.Addr]uint64
	banks  []map[amath.Addr]uint64
	l1s    []map[amath.Addr]uint64

	violations []string
	suppressed uint64 // violations past the maxViolations cap, counted not stored
}

func newVerifier(cfg *arch.Config) *verifier {
	v := &verifier{
		golden: make(map[amath.Addr]uint64),
		mem:    make(map[amath.Addr]uint64),
	}
	for i := 0; i < cfg.NumCores; i++ {
		v.banks = append(v.banks, make(map[amath.Addr]uint64))
		v.l1s = append(v.l1s, make(map[amath.Addr]uint64))
	}
	return v
}

const maxViolations = 20

// report records one violation. Storage is capped at maxViolations —
// the first ones localize the bug, the rest are only counted — so a
// badly broken policy producing a violation per access cannot balloon
// a long run's memory; Violations() reports the overflow count.
// (The hot-path walk stops at the verify* callers, so no allow(alloc)
// is needed here.)
func (v *verifier) report(format string, args ...any) {
	if len(v.violations) < maxViolations {
		v.violations = append(v.violations, fmt.Sprintf(format, args...))
	} else {
		v.suppressed++
	}
}

// Violations returns the coherence violations the verifier observed, or
// nil when verification is disabled or clean. Only the first
// maxViolations are stored verbatim; any overflow is summarized in a
// final "… and N more" entry.
func (m *Machine) Violations() []string {
	if m.ver == nil {
		return nil
	}
	if m.ver.suppressed == 0 {
		return m.ver.violations
	}
	out := make([]string, 0, len(m.ver.violations)+1)
	out = append(out, m.ver.violations...)
	out = append(out, fmt.Sprintf("… and %d more violations (storage capped at %d)", m.ver.suppressed, maxViolations))
	return out
}

// goldenWrite records a core's store: the block's golden version advances
// and the core's L1 copy becomes the only current one. The L1 line must
// be Modified at this point.
//
//tdnuca:allow(alloc) checker-only: reached only with CheckInvariants on; the zero-allocation property is defined with the checker off
func (m *Machine) goldenWrite(core int, pa amath.Addr) {
	if m.ver == nil {
		return
	}
	m.watch(pa, "write by core %d -> v%d", core, m.ver.golden[pa]+1)
	if st := m.L1s[core].Probe(pa); st != cache.Modified {
		m.ver.report("write by core %d to %#x with L1 state %v, want M", core, uint64(pa), st)
	}
	m.ver.golden[pa]++
	m.ver.l1s[core][pa] = m.ver.golden[pa]
}

// verifyL1Read checks a read served by the core's own L1.
//
//tdnuca:allow(alloc) checker-only: reached only with CheckInvariants on; the zero-allocation property is defined with the checker off
func (m *Machine) verifyL1Read(core int, pa amath.Addr) {
	if m.ver == nil {
		return
	}
	if got, want := m.ver.l1s[core][pa], m.ver.golden[pa]; got != want {
		m.ver.report("stale L1 read: core %d block %#x version %d, golden %d", core, uint64(pa), got, want)
	}
}

// verifyServeFromBank checks a demand request served by a bank and
// propagates the bank's version into the requesting core's L1.
//
//tdnuca:allow(alloc) checker-only: reached only with CheckInvariants on; the zero-allocation property is defined with the checker off
func (m *Machine) verifyServeFromBank(core, bank int, pa amath.Addr) {
	if m.ver == nil {
		return
	}
	m.watch(pa, "serve bank %d -> core %d v%d (golden %d)", bank, core, m.ver.banks[bank][pa], m.ver.golden[pa])
	got, want := m.ver.banks[bank][pa], m.ver.golden[pa]
	if got != want {
		m.ver.report("stale LLC serve: bank %d block %#x version %d, golden %d (core %d)",
			bank, uint64(pa), got, want, core)
	}
	m.ver.l1s[core][pa] = got
}

// verifyFillFromMemory checks a bypass fill served straight from DRAM.
//
//tdnuca:allow(alloc) checker-only: reached only with CheckInvariants on; the zero-allocation property is defined with the checker off
func (m *Machine) verifyFillFromMemory(core int, pa amath.Addr) {
	if m.ver == nil {
		return
	}
	m.watch(pa, "bypass fill mem v%d -> core %d (golden %d)", m.ver.mem[pa], core, m.ver.golden[pa])
	got, want := m.ver.mem[pa], m.ver.golden[pa]
	if got != want {
		m.ver.report("stale bypass fill: block %#x memory version %d, golden %d (core %d)",
			uint64(pa), got, want, core)
	}
	m.ver.l1s[core][pa] = got
}

// verifyBankFillFromMemory propagates memory's version into a bank on an
// LLC miss fill. Staleness is not checked here — it is caught when the
// copy is served.
//
//tdnuca:allow(alloc) checker-only: reached only with CheckInvariants on; the zero-allocation property is defined with the checker off
func (m *Machine) verifyBankFillFromMemory(bank int, pa amath.Addr) {
	if m.ver == nil {
		return
	}
	m.watch(pa, "bank %d fill from mem v%d", bank, m.ver.mem[pa])
	m.ver.banks[bank][pa] = m.ver.mem[pa]
}

// verifyOwnerWriteback propagates a dirty owner's version into the bank.
//
//tdnuca:allow(alloc) checker-only: reached only with CheckInvariants on; the zero-allocation property is defined with the checker off
func (m *Machine) verifyOwnerWriteback(core, bank int, pa amath.Addr) {
	if m.ver == nil {
		return
	}
	m.watch(pa, "owner wb core %d -> bank %d v%d", core, bank, m.ver.l1s[core][pa])
	m.ver.banks[bank][pa] = m.ver.l1s[core][pa]
}

// verifyWritebackToBank propagates an L1 victim's version into the bank.
//
//tdnuca:allow(alloc) checker-only: reached only with CheckInvariants on; the zero-allocation property is defined with the checker off
func (m *Machine) verifyWritebackToBank(core, bank int, pa amath.Addr) {
	if m.ver == nil {
		return
	}
	m.watch(pa, "L1 wb core %d -> bank %d v%d", core, bank, m.ver.l1s[core][pa])
	m.ver.banks[bank][pa] = m.ver.l1s[core][pa]
}

// verifyWritebackToMemory propagates a bypassed victim's version to DRAM.
//
//tdnuca:allow(alloc) checker-only: reached only with CheckInvariants on; the zero-allocation property is defined with the checker off
func (m *Machine) verifyWritebackToMemory(core int, pa amath.Addr) {
	if m.ver == nil {
		return
	}
	m.watch(pa, "L1 wb core %d -> mem v%d", core, m.ver.l1s[core][pa])
	m.ver.mem[pa] = m.ver.l1s[core][pa]
}

// verifyBankWritebackToMemory propagates a dirty LLC victim's version to
// DRAM.
//
//tdnuca:allow(alloc) checker-only: reached only with CheckInvariants on; the zero-allocation property is defined with the checker off
func (m *Machine) verifyBankWritebackToMemory(bank int, pa amath.Addr) {
	if m.ver == nil {
		return
	}
	m.watch(pa, "bank %d wb -> mem v%d", bank, m.ver.banks[bank][pa])
	m.ver.mem[pa] = m.ver.banks[bank][pa]
}

// verifyL1Fill is a hook for symmetry; versions are propagated at serve
// time, so nothing is needed here.
func (m *Machine) verifyL1Fill(core int, pa amath.Addr) {}

// verifyL1Drop forgets a core's copy after invalidation or eviction.
//
//tdnuca:allow(alloc) checker-only: reached only with CheckInvariants on; the zero-allocation property is defined with the checker off
func (m *Machine) verifyL1Drop(core int, pa amath.Addr) {
	if m.ver == nil {
		return
	}
	m.watch(pa, "L1 core %d drop v%d", core, m.ver.l1s[core][pa])
	delete(m.ver.l1s[core], pa)
}

// verifyBankDrop forgets a bank's copy after eviction or flush.
//
//tdnuca:allow(alloc) checker-only: reached only with CheckInvariants on; the zero-allocation property is defined with the checker off
func (m *Machine) verifyBankDrop(bank int, pa amath.Addr) {
	if m.ver == nil {
		return
	}
	m.watch(pa, "bank %d drop v%d", bank, m.ver.banks[bank][pa])
	delete(m.ver.banks[bank], pa)
}
