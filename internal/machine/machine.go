// Package machine assembles the simulated tiled chip multiprocessor: 16
// cores each with a TLB and a private L1, a banked inclusive NUCA LLC
// with a co-located MESI directory per bank, memory controllers on the
// mesh edges, and the NoC connecting everything. It executes one memory
// access at a time end-to-end, charging Table-I latencies and accounting
// every message, and delegates the *placement* decision for each L1 miss
// to a pluggable Policy (S-NUCA, R-NUCA or TD-NUCA).
package machine

import (
	"fmt"
	"io"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/cache"
	"tdnuca/internal/energy"
	"tdnuca/internal/noc"
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
	"tdnuca/internal/vm"
)

// PlacementKind says how a block is mapped onto the NUCA LLC.
type PlacementKind uint8

const (
	// Interleaved spreads blocks across all banks by block address
	// (the S-NUCA default, and the fallback for untracked data).
	Interleaved PlacementKind = iota
	// SingleBank pins the block to one LLC bank (private data in R-NUCA,
	// Out/InOut dependencies in TD-NUCA).
	SingleBank
	// BankSet interleaves the block across the banks in a mask (cluster
	// replication: each cluster holds one replica, interleaved within).
	BankSet
	// Bypass skips the LLC entirely; the block moves between DRAM and the
	// private cache (TD-NUCA NotReused dependencies).
	Bypass
)

// Placement is a policy's answer for one block.
type Placement struct {
	Kind PlacementKind
	Bank int       // destination bank when Kind == SingleBank
	Set  arch.Mask // destination bank set when Kind == BankSet
}

// AccessContext describes the access a Policy is deciding about.
type AccessContext struct {
	Core      int
	Proc      int        // process bound to the core at access time
	VA        amath.Addr // virtual address of the demand access (zero on writebacks)
	PA        amath.Addr // physical block base address
	Write     bool
	Writeback bool // true when this is an L1 victim writeback, not a demand access
}

// Policy decides LLC placement. Implementations live in internal/policy
// (S-NUCA), internal/rnuca and internal/core (TD-NUCA); they receive the
// Machine at construction so they can trigger flushes on classification
// transitions.
type Policy interface {
	// Name identifies the policy in reports ("S-NUCA", "R-NUCA", ...).
	Name() string
	// Place maps a physical block to its LLC destination. The returned
	// extra cycles are added to the access latency (e.g. R-NUCA
	// reclassification flushes executed on the critical path).
	Place(ac AccessContext) (Placement, sim.Cycles)
	// LookupPenalty is added to every private-cache miss and writeback
	// (the RRT lookup delay; zero for policies without an RRT).
	LookupPenalty() int
	// UsesRRT reports whether lookups should be charged RRT energy.
	UsesRRT() bool
}

// WriteObserver is an optional Policy extension notified of the silent
// E->M upgrades that produce no coherence traffic. OS-based policies need
// it: the hardware sets the page-table dirty bit on any store, so a first
// write to a clean-exclusive line in a read-only-classified page must
// still trigger reclassification (R-NUCA's RO->RW demotion). Runtime-based
// policies (TD-NUCA) learn about writes from the dependency modes instead.
type WriteObserver interface {
	ObserveWrite(ac AccessContext) sim.Cycles
}

// dirEntry is the MESI directory state for one block resident in a bank.
// owner >= 0 means the block is exclusive (E or M) in that core's L1;
// sharers lists cores holding S copies. owner and sharers are mutually
// exclusive.
type dirEntry struct {
	sharers arch.Mask
	owner   int
}

// Bank is one LLC bank plus its co-located directory slice.
type Bank struct {
	Cache *cache.Cache
	dir   dirTable // block number -> directory state
}

// Metrics aggregates everything a run measures. All counters are raw
// event counts; normalization happens in the harness.
type Metrics struct {
	Accesses     uint64 // demand accesses issued by cores
	L1Hits       uint64
	L1Misses     uint64
	L1Writebacks uint64 // dirty L1 victims written back

	LLCAccesses      uint64 // demand requests reaching LLC banks (Fig. 9's metric)
	LLCHits          uint64
	LLCMisses        uint64
	LLCFills         uint64
	LLCWritebacksIn  uint64 // writebacks received from L1s
	LLCWritebacksOut uint64 // dirty LLC victims written to DRAM
	LLCEvictions     uint64

	BypassAccesses uint64 // demand accesses served directly from DRAM
	DRAMReads      uint64
	DRAMWrites     uint64

	Upgrades      uint64 // S->M write upgrades
	Invalidations uint64 // copies invalidated by coherence or flush
	OwnerForwards uint64 // reads satisfied by forwarding from an M/E owner

	// NUCA distance (Fig. 11): hops between requesting core and the LLC
	// bank serving each demand request. Bypassed accesses are excluded,
	// matching the paper.
	NUCADistSum uint64
	NUCADistCnt uint64

	FlushOps      uint64 // tdnuca_flush / page-flush operations
	FlushedBlocks uint64
	FlushCycles   sim.Cycles

	RRTLookups uint64
}

// NUCADistance returns the average hops per LLC demand access.
func (m Metrics) NUCADistance() float64 {
	if m.NUCADistCnt == 0 {
		return 0
	}
	return float64(m.NUCADistSum) / float64(m.NUCADistCnt)
}

// LLCHitRatio returns hits over demand accesses (Fig. 10's metric).
func (m Metrics) LLCHitRatio() float64 {
	if m.LLCAccesses == 0 {
		return 0
	}
	return float64(m.LLCHits) / float64(m.LLCAccesses)
}

// Machine is the simulated CMP. It is not safe for concurrent use: the
// simulation is single-threaded and deterministic by design.
type Machine struct {
	Cfg   *arch.Config
	AS    *vm.AddressSpace // process 0's address space (the common case)
	TLBs  []*vm.TLB
	L1s   []*cache.Cache
	Banks []*Bank
	Net   *noc.Network

	alloc    *vm.PhysAllocator
	procs    []*Process
	coreProc []int // process currently bound to each core

	// Hot-path accelerators. trans memoizes each core's last
	// virtual-to-physical page translation (invalidated on BindCore);
	// nearestMC precomputes Cfg.NearestMemCtrl per tile. Neither changes
	// any simulated behavior.
	trans     []vm.TransCache
	nearestMC []int

	// Bank-retirement state (see fault.go). bankMap is always the
	// identity until the first RetireBank, so every resolve applies it
	// unconditionally without perturbing healthy runs; retired is the
	// mask of drained banks that must never serve an access again.
	bankMap []int
	retired arch.Mask

	policy   Policy
	writeObs WriteObserver // non-nil when policy implements WriteObserver
	met      Metrics
	ver      *verifier

	// tr is the attached event tracer (nil = tracing off, the zero-cost
	// state). cs is the machine's share of the cycle stack: every cycle
	// AccessAt returns is attributed to exactly one component at the
	// site that adds it, so the components sum to the total access
	// latency. cs is always on — plain counter adds, no allocation — so
	// digests cannot depend on whether a tracer is attached.
	tr *trace.Tracer
	cs trace.CycleStack

	// Coherence-trace state (SetWatchBlock). Per machine so concurrent
	// runs cannot race on it.
	watchBlock amath.Addr
	watchW     io.Writer
}

// New builds a machine for the given configuration. The address space is
// created with the given physical fragmentation period (vm.NewAddressSpace)
// and RNG seed. The policy is attached afterwards with SetPolicy.
func New(cfg *arch.Config, fragEvery int, seed uint64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	alloc := vm.NewPhysAllocator(fragEvery, seed)
	m := &Machine{
		Cfg:       cfg,
		AS:        vm.NewAddressSpaceWith(cfg.PageBytes, alloc),
		Net:       noc.New(cfg),
		alloc:     alloc,
		coreProc:  make([]int, cfg.NumCores),
		trans:     make([]vm.TransCache, cfg.NumCores),
		nearestMC: make([]int, cfg.NumCores),
		bankMap:   make([]int, cfg.NumCores),
	}
	for i := range m.nearestMC {
		m.nearestMC[i] = cfg.NearestMemCtrl(i)
		m.bankMap[i] = i
	}
	m.procs = []*Process{{ID: 0, AS: m.AS}}
	if cfg.NoCContention {
		m.Net.EnableContention(cfg.LinkBandwidthBytes)
	}
	for i := 0; i < cfg.NumCores; i++ {
		m.TLBs = append(m.TLBs, vm.NewTLB(cfg.TLBEntries))
		l1, err := cache.New(cfg.L1Bytes, cfg.L1Ways, cfg.BlockBytes)
		if err != nil {
			return nil, fmt.Errorf("machine: L1: %w", err)
		}
		m.L1s = append(m.L1s, l1)
		bc, err := cache.New(cfg.LLCBankBytes, cfg.LLCWays, cfg.BlockBytes)
		if err != nil {
			return nil, fmt.Errorf("machine: LLC bank: %w", err)
		}
		// NUCA banks use a hashed set index, as real LLCs do: the raw low
		// block bits are the bank-selection bits and would collapse the
		// usable sets under either interleaved or single-bank placement.
		bc.EnableIndexHash()
		m.Banks = append(m.Banks, &Bank{Cache: bc})
	}
	if cfg.CheckInvariants {
		m.ver = newVerifier(cfg)
	}
	return m, nil
}

// MustNew is New but panics on error, for tests and examples.
func MustNew(cfg *arch.Config, fragEvery int, seed uint64) *Machine {
	m, err := New(cfg, fragEvery, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// SetPolicy attaches the NUCA management policy. It must be called before
// the first access.
func (m *Machine) SetPolicy(p Policy) {
	m.policy = p
	m.writeObs, _ = p.(WriteObserver)
}

// Policy returns the attached policy.
func (m *Machine) Policy() Policy { return m.policy }

// SetTracer attaches an event tracer to the machine and its NoC (nil
// detaches). Tracing is observation-only: it changes no latency, no
// counter and no digest, which TestTracingDigestNeutral pins.
func (m *Machine) SetTracer(tr *trace.Tracer) {
	m.tr = tr
	m.Net.SetTracer(tr)
}

// Tracer returns the attached tracer (nil when tracing is off), letting
// policies and runtimes emit into the same event stream.
func (m *Machine) Tracer() *trace.Tracer { return m.tr }

// CycleStack returns the machine's share of the run's cycle stack: the
// decomposition of every AccessAt latency into L1 (translation +
// private-cache lookup), LLC, NoC (topological vs. queueing), DRAM, RRT
// and Manager components. The harness adds the runtime-side components
// (compute, creation, hooks) and the idle remainder.
func (m *Machine) CycleStack() trace.CycleStack { return m.cs }

// chargeNoC attributes one critical-path NoC traversal to the cycle
// stack: the topological part (routers + links at unloaded latency) to
// NoCHop, anything the contention model added to NoCQueue.
func (m *Machine) chargeNoC(hops int, lat sim.Cycles) {
	topo := sim.Cycles(m.Cfg.HopLatency(hops))
	m.cs.NoCHop += topo
	m.cs.NoCQueue += lat - topo
}

// Metrics returns a snapshot of the machine's counters.
func (m *Machine) Metrics() Metrics { return m.met }

// EnergyCounters assembles the event counts for the energy model.
func (m *Machine) EnergyCounters() energy.Counters {
	return energy.Counters{
		LLCReads:     m.met.LLCAccesses,
		LLCWrites:    m.met.LLCFills + m.met.LLCWritebacksIn,
		DirAccesses:  m.met.LLCAccesses + m.met.LLCFills + m.met.LLCWritebacksIn,
		NoCByteHops:  m.Net.ByteHops(),
		NoCFlitHops:  m.Net.FlitHops(),
		DRAMAccesses: m.met.DRAMReads + m.met.DRAMWrites,
		RRTLookups:   m.met.RRTLookups,
		L1Accesses:   m.met.L1Hits + m.met.L1Misses,
	}
}

// TLBStats sums hits and misses across all core TLBs.
func (m *Machine) TLBStats() (hits, misses uint64) {
	for _, t := range m.TLBs {
		hits += t.Hits()
		misses += t.Misses()
	}
	return hits, misses
}

// blockNum converts a physical address to its block number.
func (m *Machine) blockNum(pa amath.Addr) uint64 { return pa.Block(m.Cfg.BlockBytes) }

// interleaveBank is the S-NUCA static mapping: block number modulo banks,
// remapped through the retirement map (identity on a healthy machine).
func (m *Machine) interleaveBank(pa amath.Addr) int {
	return m.bankMap[m.blockNum(pa)%uint64(m.Cfg.NumCores)]
}

// ResolveBank turns a Placement into the concrete destination bank for a
// block (for BankSet, interleaving by the low block-address bits as in
// Sec. III-B3). Every resolve passes through the retirement map, so a
// placement that names a retired bank lands on that bank's deterministic
// survivor instead — the policies never need to know a bank died to stay
// correct, they only consult the map (via BankMap) to stay efficient.
// It panics on Bypass placements.
func (m *Machine) ResolveBank(pl Placement, pa amath.Addr) int {
	var bank int
	switch pl.Kind {
	case Interleaved:
		bank = m.interleaveBank(pa)
	case SingleBank:
		bank = m.bankMap[pl.Bank]
	case BankSet:
		n := pl.Set.Count()
		if n == 0 {
			panic("machine: empty BankSet placement")
		}
		bank = m.bankMap[pl.Set.NthBit(int(m.blockNum(pa)%uint64(n)))]
	default:
		panic("machine: ResolveBank on Bypass placement")
	}
	if !m.retired.IsEmpty() {
		m.verifyBankAlive(bank)
	}
	return bank
}
