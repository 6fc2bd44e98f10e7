// Package rnuca implements the Reactive-NUCA baseline (Sec. II-B/II-C),
// enhanced exactly as the paper's evaluation requires: besides the
// original behaviour — OS-level first-touch page classification, private
// pages in the accessor's local bank, shared pages address-interleaved —
// it also replicates shared read-only *data* pages in LLC clusters, and
// flushes + reclassifies when such a page is later written.
//
// The classifier has the documented limitations that motivate TD-NUCA:
// classification is at page granularity, a page that ever becomes shared
// never returns to private, and no reuse information exists at the OS
// level, so nothing ever bypasses the LLC.
package rnuca

import (
	"math/bits"
	"sort"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/machine"
	"tdnuca/internal/sim"
)

// Class is the OS-level classification of a page.
type Class uint8

const (
	// ClassPrivate pages have been accessed by exactly one core.
	ClassPrivate Class = iota
	// ClassSharedRO pages are accessed by multiple cores, never written.
	ClassSharedRO
	// ClassShared pages are accessed by multiple cores and written.
	ClassShared
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassPrivate:
		return "private"
	case ClassSharedRO:
		return "shared-ro"
	case ClassShared:
		return "shared"
	}
	return "unknown"
}

type pageInfo struct {
	class     Class
	owner     int // first-touch core while private
	ownerVP   uint64
	written   bool
	accessors arch.Mask
	touched   uint64 // bitmap of blocks touched within the page (<= 64 blocks/page)
}

// Stats counts classifier activity.
type Stats struct {
	Pages              uint64
	PrivateToShared    uint64
	PrivateToSharedRO  uint64
	SharedROToShared   uint64
	TLBShootdowns      uint64
	ReclassFlushCycles sim.Cycles
}

// RNUCA is the enhanced Reactive-NUCA policy.
type RNUCA struct {
	m     *machine.Machine
	cfg   *arch.Config
	pages map[uint64]*pageInfo // physical page number -> info

	// ShootdownCycles is the cost charged per TLB shootdown target during
	// page reclassification (Sec. II-C describes these as costly).
	ShootdownCycles sim.Cycles

	// AssumeInitWritten treats every data page as having been written
	// during (unmeasured) program initialization, so its dirty bit is
	// already set when the measured phase first touches it. This matches
	// the paper's observation that R-NUCA classifies under 1% of blocks
	// as shared read-only "because, after reading a cache block, most
	// often ... it is later written" — input data is loaded (written)
	// before the parallel phase. Tests of the read-only replication path
	// switch it off.
	AssumeInitWritten bool

	// pageBits and blockBits are log2 of the validated power-of-two page
	// and block sizes, so the per-access paths derive page and block
	// numbers by shifts.
	pageBits, blockBits uint8

	stats Stats
}

// New attaches an R-NUCA policy to a machine.
func New(m *machine.Machine) *RNUCA {
	return &RNUCA{
		m:                 m,
		cfg:               m.Cfg,
		pages:             make(map[uint64]*pageInfo),
		pageBits:          uint8(m.Cfg.PageOffsetBits()),
		blockBits:         uint8(m.Cfg.BlockOffsetBits()),
		ShootdownCycles:   arch.TLBShootdownCycles,
		AssumeInitWritten: true,
	}
}

// Name implements machine.Policy.
func (r *RNUCA) Name() string { return "R-NUCA" }

// LookupPenalty implements machine.Policy: R-NUCA piggybacks the
// classification on the TLB, adding no lookup latency to L1 misses.
func (*RNUCA) LookupPenalty() int { return 0 }

// UsesRRT implements machine.Policy.
func (*RNUCA) UsesRRT() bool { return false }

// Stats returns classifier statistics.
func (r *RNUCA) Stats() Stats { return r.stats }

func (r *RNUCA) pageRange(pp uint64) amath.Range {
	return amath.NewRange(amath.Addr(pp*uint64(r.cfg.PageBytes)), uint64(r.cfg.PageBytes))
}

// Place implements machine.Policy: it classifies the page (updating the
// classification on demand accesses, with reclassification flushes and
// TLB shootdowns charged to the faulting access) and returns the
// placement R-NUCA prescribes for the class.
func (r *RNUCA) Place(ac machine.AccessContext) (machine.Placement, sim.Cycles) {
	pp := uint64(ac.PA) >> r.pageBits
	info, ok := r.pages[pp]
	if !ok {
		info = &pageInfo{class: ClassPrivate, owner: ac.Core, written: r.AssumeInitWritten}
		r.pages[pp] = info
		r.stats.Pages++
	}

	var extra sim.Cycles
	if !ac.Writeback {
		blockInPage := (uint64(ac.PA) & (uint64(r.cfg.PageBytes) - 1)) >> r.blockBits
		if blockInPage > 63 {
			blockInPage = 63 // bitmap saturates for >4KB pages; counts stay approximate
		}
		info.touched |= 1 << blockInPage
		info.accessors = info.accessors.Set(ac.Core)
		if !ok {
			info.ownerVP = uint64(ac.VA) >> r.pageBits
		}
		extra = r.reclassify(info, pp, ac)
	}

	switch info.class {
	case ClassPrivate:
		return machine.Placement{Kind: machine.SingleBank, Bank: info.owner}, extra
	case ClassSharedRO:
		core := ac.Core
		if ac.Writeback {
			// Dirty data cannot belong to a read-only page in steady
			// state; fall back to interleaving for safety.
			return machine.Placement{Kind: machine.Interleaved}, extra
		}
		return machine.Placement{Kind: machine.BankSet, Set: r.cfg.ClusterMask(core)}, extra
	default:
		return machine.Placement{Kind: machine.Interleaved}, extra
	}
}

// ObserveWrite implements machine.WriteObserver: a silent E->M upgrade
// produces no coherence traffic, but the MMU still sets the page-table
// dirty bit, so the OS classification must see the write — otherwise a
// store into a replicated read-only page would leave stale replicas.
func (r *RNUCA) ObserveWrite(ac machine.AccessContext) sim.Cycles {
	pp := uint64(ac.PA) >> r.pageBits
	info, ok := r.pages[pp]
	if !ok {
		// An E line without a page record cannot occur on a demand path,
		// but stay safe: record the page as private-written.
		r.pages[pp] = &pageInfo{class: ClassPrivate, owner: ac.Core, written: true}
		r.stats.Pages++
		return 0
	}
	info.accessors = info.accessors.Set(ac.Core)
	return r.reclassify(info, pp, ac)
}

// reclassify applies the OS classification transitions of Sec. II-C.
func (r *RNUCA) reclassify(info *pageInfo, pp uint64, ac machine.AccessContext) sim.Cycles {
	var extra sim.Cycles
	switch info.class {
	case ClassPrivate:
		if ac.Core == info.owner {
			if ac.Write {
				info.written = true
			}
			return 0
		}
		// Second core touches the page: flush it from the owner's caches
		// (L1 and the owner's local bank where it was placed) and shoot
		// down the owner's TLB entry, then reclassify.
		pr := r.pageRange(pp)
		l1, _ := r.m.FlushL1Range(info.owner, pr)
		bank, _ := r.m.FlushBankRange(info.owner, pr)
		extra += l1 + bank
		r.m.TLBs[info.owner].Invalidate(info.ownerVP)
		extra += r.ShootdownCycles
		r.stats.TLBShootdowns++
		if info.written || ac.Write {
			info.class = ClassShared
			info.written = info.written || ac.Write
			r.stats.PrivateToShared++
		} else {
			info.class = ClassSharedRO
			r.stats.PrivateToSharedRO++
		}
		r.stats.ReclassFlushCycles += extra
	case ClassSharedRO:
		if ac.Write {
			// A replicated read-only page is written: flush every replica
			// and every L1 copy chip-wide, shoot down all accessors'
			// TLBs, and demote to shared (never back).
			pr := r.pageRange(pp)
			fl, _ := r.m.FlushRangeEverywhere(pr)
			extra += fl
			n := info.accessors.Count()
			extra += r.ShootdownCycles * sim.Cycles(n)
			r.stats.TLBShootdowns += uint64(n)
			info.class = ClassShared
			info.written = true
			r.stats.SharedROToShared++
			r.stats.ReclassFlushCycles += extra
		}
	case ClassShared:
		if ac.Write {
			info.written = true
		}
	}
	return extra
}

// BankRetired implements machine.FaultObserver. R-NUCA needs no
// placement fix-up when an LLC bank is retired: its placements name
// banks symbolically (a private page's owner core, a cluster mask) and
// every resolve passes through the machine's retirement map, so they
// land on the survivor automatically. What the OS *does* pay for is the
// placement hint piggybacked on the TLB: private pages homed at the dead
// bank carry a stale hint in their owner's TLB, so those entries are
// shot down (the next access re-walks and picks up the remap). The page
// classification itself is untouched — owner is a core, and cores
// outlive their banks.
func (r *RNUCA) BankRetired(bank int) sim.Cycles {
	pns := make([]uint64, 0, len(r.pages))
	for pn := range r.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	var cyc sim.Cycles
	for _, pn := range pns {
		info := r.pages[pn]
		if info.class != ClassPrivate || info.owner != bank {
			continue
		}
		r.m.TLBs[info.owner].Invalidate(info.ownerVP)
		cyc += r.ShootdownCycles
		r.stats.TLBShootdowns++
	}
	return cyc
}

// BlockClasses returns the number of unique touched cache blocks whose
// page ended the run in each class — the R-NUCA bar of Fig. 3.
func (r *RNUCA) BlockClasses() (private, sharedRO, shared uint64) {
	pns := make([]uint64, 0, len(r.pages))
	for pn := range r.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	for _, pn := range pns {
		info := r.pages[pn]
		n := uint64(bits.OnesCount64(info.touched))
		switch info.class {
		case ClassPrivate:
			private += n
		case ClassSharedRO:
			sharedRO += n
		default:
			shared += n
		}
	}
	return
}

// PageClass returns the current class of the page backing a physical
// address, for tests.
func (r *RNUCA) PageClass(pa amath.Addr) (Class, bool) {
	info, ok := r.pages[pa.Page(r.cfg.PageBytes)]
	if !ok {
		return 0, false
	}
	return info.class, true
}
