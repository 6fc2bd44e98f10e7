// Package arch defines the architectural parameters of the simulated tiled
// chip multiprocessor (Table I of the TD-NUCA paper) together with the
// geometric helpers every other package relies on: tile coordinates on the
// mesh, bank/core bit-vector masks, and the LLC replication clusters
// (quadrants) used by TD-NUCA's cluster-replicated mapping.
package arch

import (
	"fmt"

	"tdnuca/internal/amath"
)

// Config carries every architectural parameter of the simulated machine.
// The zero value is not usable; construct one with DefaultConfig (the
// paper's Table I machine) or ScaledConfig (the fast machine used for the
// default experiments) and tweak fields before building a machine.
type Config struct {
	// Cores and mesh geometry. NumCores must equal MeshWidth*MeshHeight;
	// each tile holds one core, one L1, one LLC bank and one directory bank.
	NumCores   int
	MeshWidth  int
	MeshHeight int

	// Block and page geometry in bytes. Both must be powers of two.
	BlockBytes int
	PageBytes  int

	// L1 data cache (per core).
	L1Bytes   int
	L1Ways    int
	L1Latency int // cycles per L1 lookup (hit time)

	// TLB (per core, fully associative).
	TLBEntries int
	TLBLatency int // cycles per TLB lookup

	// Page table walk penalty charged on a TLB miss.
	PageWalkLatency int

	// LLC: one bank per tile. LLCBankBytes is capacity per bank.
	LLCBankBytes int
	LLCWays      int
	LLCLatency   int // cycles per bank lookup

	// Coherence directory: one bank per tile, co-located with the LLC bank.
	// DirEntriesPerBank and DirWays are the sizes Table I reports; the
	// simulator does not model the directory as a separate structure but
	// keeps each block's MESI state beside its LLC line (one entry per
	// line), so Validate requires DirEntriesPerBank to cover every line
	// of a bank.
	DirEntriesPerBank int
	DirWays           int
	DirLatency        int // cycles per directory lookup

	// NoC: per-traversal costs. An h-hop message crosses h links and
	// h+1 routers (injection, intermediates, ejection); see HopLatency.
	RouterLatency int
	LinkLatency   int

	// NoCContention enables the queueing contention model: each directed
	// link serializes messages at LinkBandwidthBytes per cycle and queues
	// arrivals while busy. Off by default (pure topological latency).
	NoCContention      bool
	LinkBandwidthBytes int

	// Message sizes on the NoC in bytes: a control message (request,
	// invalidation, ack) and the header attached to every data message.
	CtrlMsgBytes int
	DataHdrBytes int

	// Memory controllers sit on the mesh edges at these tile positions;
	// a DRAM access is routed to the nearest controller.
	MemCtrlTiles []int
	DRAMLatency  int // cycles from request arrival at the controller to data

	// RRT (TD-NUCA only): entries per core and lookup latency in cycles.
	// RRTLatency is added to every private-cache miss and writeback.
	RRTEntries int
	RRTLatency int

	// ClusterWidth/Height define the LLC replication clusters. The paper
	// divides the 4x4 mesh into 2x2 quadrants (4 clusters of 4 banks).
	ClusterWidth  int
	ClusterHeight int

	// CheckInvariants enables expensive runtime verification of coherence
	// protocol invariants and golden-value read checking.
	CheckInvariants bool
}

// DefaultConfig returns the machine of Table I: 16 cores on a 4x4 mesh,
// 32KB 8-way L1s, a 32MB LLC banked 2MB/core (16-way, 15 cycles), 64-entry
// TLBs, a 512K-entry directory banked 32K/core, 1-cycle links and routers,
// and 64-entry 1-cycle RRTs.
func DefaultConfig() Config {
	return Config{
		NumCores:   16,
		MeshWidth:  4,
		MeshHeight: 4,

		BlockBytes: 64,
		PageBytes:  4096,

		L1Bytes:   32 << 10,
		L1Ways:    8,
		L1Latency: 2,

		TLBEntries:      64,
		TLBLatency:      1,
		PageWalkLatency: 50,

		LLCBankBytes: 2 << 20,
		LLCWays:      16,
		LLCLatency:   15,

		DirEntriesPerBank: 32 << 10,
		DirWays:           16,
		DirLatency:        15,

		RouterLatency: 1,
		LinkLatency:   1,

		LinkBandwidthBytes: 16,

		CtrlMsgBytes: 8,
		DataHdrBytes: 8,

		MemCtrlTiles: []int{0, 3, 12, 15},
		DRAMLatency:  120,

		RRTEntries: 64,
		RRTLatency: 1,

		ClusterWidth:  2,
		ClusterHeight: 2,
	}
}

// Fixed cycle costs that are not per-machine Config knobs. They live
// here, next to the Table-I constants, so that every latency in the
// model has exactly one named home (enforced by the tdnuca-lint
// config/units pass: a raw integer literal used as sim.Cycles outside
// this package is a finding).
const (
	// TLBShootdownCycles is the cost of a TLB shootdown broadcast when
	// R-NUCA re-classifies a page (private -> shared), following the
	// Hardavellas et al. re-classification mechanism.
	TLBShootdownCycles = 400

	// ManagerDecisionCycles is charged to the creator core for each
	// TD-NUCA runtime mapping decision taken at task creation.
	ManagerDecisionCycles = 30

	// ManagerPollCycles is charged for polling the runtime cache
	// directory on a dependency that already has a decision.
	ManagerPollCycles = 20

	// TaskCreateCycles is the fixed runtime overhead of creating a task
	// (Nanos++-style task instantiation).
	TaskCreateCycles = 150

	// TaskCreatePerDepCycles is the additional creation overhead per
	// declared dependence (dependence-graph insertion).
	TaskCreatePerDepCycles = 40

	// ComputePerBlockCycles is the synthetic compute charged by the
	// workload sweep helpers per cache block processed.
	ComputePerBlockCycles = 12

	// TraceIntervalCycles is the default bucket length of the tracer's
	// interval time series: 10k-cycle buckets give a few hundred samples
	// per golden-scale benchmark run.
	TraceIntervalCycles = 10_000

	// Fault-injection control costs (internal/faults): cycles charged to
	// the core that observes a fault, on top of the modelled recovery
	// work. A bank retirement additionally pays the drain flush, a link
	// failure the routing-table rebuild broadcast, an RRT degradation the
	// per-entry eviction flushes.
	FaultBankRetireCycles = 200
	FaultLinkFailCycles   = 60
	FaultRRTDegradeCycles = 40

	// Default fault schedule (faults.Default): the cycle offsets at which
	// the staged bank retirement, link failure and RRT shrink fire. They
	// sit well inside the shortest golden-scale benchmark (~335k cycles)
	// so every degraded run exercises all three recovery paths.
	FaultBankRetireAtCycles = 20_000
	FaultLinkFailAtCycles   = 50_000
	FaultRRTShrinkAtCycles  = 80_000
)

// MeshConfig returns the Table I machine generalized to a width x height
// mesh: per-tile resources (L1, LLC bank, directory bank, TLB, RRT) and
// every latency are DefaultConfig's, memory controllers sit at the four
// mesh corners, and the replication clusters are the mesh quadrants
// (width/2 x height/2) when both dimensions are even — the direct
// generalization of the paper's 2x2 quadrants on the 4x4 mesh — falling
// back to single-bank clusters otherwise. MeshConfig(4, 4) is
// DefaultConfig exactly, corner memory controllers included.
func MeshConfig(width, height int) Config {
	c := DefaultConfig()
	c.MeshWidth, c.MeshHeight = width, height
	c.NumCores = width * height
	c.ClusterWidth, c.ClusterHeight = 1, 1
	if width%2 == 0 && height%2 == 0 {
		c.ClusterWidth, c.ClusterHeight = width/2, height/2
	}
	c.MemCtrlTiles = cornerTiles(width, height)
	return c
}

// ScaledMeshConfig is MeshConfig with ScaledConfig's smaller caches, the
// right machine for generated-workload sweeps on big meshes: simulation
// cost stays proportional to the footprint, not to Table I's 2MB banks.
func ScaledMeshConfig(width, height int) Config {
	c := MeshConfig(width, height)
	c.L1Bytes = 8 << 10
	c.LLCBankBytes = 64 << 10
	c.DirEntriesPerBank = 2 << 10
	return c
}

// cornerTiles returns the distinct corner tile ids of a width x height
// mesh in ascending order — the memory-controller placement MeshConfig
// uses, matching Table I's {0, 3, 12, 15} on the 4x4 mesh.
func cornerTiles(width, height int) []int {
	corners := []int{0, width - 1, (height - 1) * width, height*width - 1}
	out := corners[:0]
	for _, t := range corners {
		dup := false
		for _, seen := range out {
			if seen == t {
				dup = true
			}
		}
		if !dup {
			out = append(out, t)
		}
	}
	return out
}

// ScaledConfig returns the scaled-down machine used by the default
// experiments: identical topology, latencies and associativities to
// DefaultConfig, but with a 1MB LLC (64KB/bank) and 8KB L1s so that the
// scaled workload geometries (internal/workloads) preserve the paper's
// input-set-to-LLC capacity ratios while simulating in seconds.
func ScaledConfig() Config {
	c := DefaultConfig()
	c.L1Bytes = 8 << 10
	c.LLCBankBytes = 64 << 10
	c.DirEntriesPerBank = 2 << 10
	return c
}

// Validate reports a descriptive error if the configuration is internally
// inconsistent (mesh/core mismatch, non-power-of-two geometry, cache sizes
// not divisible into sets, cluster grid not tiling the mesh, ...).
func (c *Config) Validate() error {
	if c.MeshWidth <= 0 || c.MeshHeight <= 0 {
		return fmt.Errorf("arch: mesh dimensions %dx%d must be positive (a chip needs at least one bank)",
			c.MeshWidth, c.MeshHeight)
	}
	if c.NumCores <= 0 || c.NumCores != c.MeshWidth*c.MeshHeight {
		return fmt.Errorf("arch: NumCores (%d) must equal MeshWidth*MeshHeight (%dx%d)",
			c.NumCores, c.MeshWidth, c.MeshHeight)
	}
	if c.NumCores > MaxTiles {
		return fmt.Errorf("arch: NumCores (%d) exceeds the %d-tile mask limit", c.NumCores, MaxTiles)
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"BlockBytes", c.BlockBytes},
		{"PageBytes", c.PageBytes},
	} {
		if p.v <= 0 || p.v&(p.v-1) != 0 {
			return fmt.Errorf("arch: %s (%d) must be a positive power of two", p.name, p.v)
		}
	}
	if c.PageBytes < c.BlockBytes {
		return fmt.Errorf("arch: PageBytes (%d) smaller than BlockBytes (%d)", c.PageBytes, c.BlockBytes)
	}
	if c.L1Ways <= 0 || c.L1Bytes%(c.L1Ways*c.BlockBytes) != 0 {
		return fmt.Errorf("arch: L1 %dB/%d-way not divisible into %dB-block sets", c.L1Bytes, c.L1Ways, c.BlockBytes)
	}
	if c.LLCWays <= 0 || c.LLCBankBytes%(c.LLCWays*c.BlockBytes) != 0 {
		return fmt.Errorf("arch: LLC bank %dB/%d-way not divisible into %dB-block sets", c.LLCBankBytes, c.LLCWays, c.BlockBytes)
	}
	if c.DirWays <= 0 || c.DirEntriesPerBank%c.DirWays != 0 {
		return fmt.Errorf("arch: directory bank %d entries not divisible by %d ways", c.DirEntriesPerBank, c.DirWays)
	}
	if lines := c.LLCBankBytes / c.BlockBytes; c.DirEntriesPerBank < lines {
		return fmt.Errorf("arch: directory bank %d entries cannot track the %d lines of an LLC bank (the directory is inclusive: one entry per line)",
			c.DirEntriesPerBank, lines)
	}
	if c.L1Bytes > c.LLCBankBytes {
		return fmt.Errorf("arch: L1 (%dB) larger than one LLC bank (%dB): the inclusive LLC could not back the private cache",
			c.L1Bytes, c.LLCBankBytes)
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("arch: TLBEntries must be positive")
	}
	// RRTEntries == 0 means "no RRT" and is valid at the arch level:
	// policies that use an RRT reject it at construction (tdnuca.NewSystem
	// and the harness), where the policy choice is known.
	if c.RRTEntries < 0 {
		return fmt.Errorf("arch: RRTEntries must be non-negative")
	}
	if c.RRTLatency < 0 {
		return fmt.Errorf("arch: RRTLatency must be non-negative")
	}
	for _, p := range []struct {
		name string
		v    int
	}{
		{"L1Latency", c.L1Latency},
		{"TLBLatency", c.TLBLatency},
		{"PageWalkLatency", c.PageWalkLatency},
		{"LLCLatency", c.LLCLatency},
		{"DirLatency", c.DirLatency},
		{"RouterLatency", c.RouterLatency},
		{"LinkLatency", c.LinkLatency},
		{"DRAMLatency", c.DRAMLatency},
	} {
		if p.v < 0 {
			return fmt.Errorf("arch: %s (%d) must be non-negative", p.name, p.v)
		}
	}
	if c.NoCContention && c.LinkBandwidthBytes <= 0 {
		return fmt.Errorf("arch: NoCContention requires a positive LinkBandwidthBytes (got %d)", c.LinkBandwidthBytes)
	}
	if c.ClusterWidth <= 0 || c.ClusterHeight <= 0 ||
		c.MeshWidth%c.ClusterWidth != 0 || c.MeshHeight%c.ClusterHeight != 0 {
		return fmt.Errorf("arch: %dx%d clusters do not tile the %dx%d mesh",
			c.ClusterWidth, c.ClusterHeight, c.MeshWidth, c.MeshHeight)
	}
	if len(c.MemCtrlTiles) == 0 {
		return fmt.Errorf("arch: at least one memory controller tile is required")
	}
	for _, t := range c.MemCtrlTiles {
		if t < 0 || t >= c.NumCores {
			return fmt.Errorf("arch: memory controller tile %d out of range [0,%d)", t, c.NumCores)
		}
	}
	return nil
}

// BlockOffsetBits returns log2(BlockBytes).
func (c *Config) BlockOffsetBits() uint { return amath.Log2(c.BlockBytes) }

// PageOffsetBits returns log2(PageBytes).
func (c *Config) PageOffsetBits() uint { return amath.Log2(c.PageBytes) }

// L1Sets returns the number of sets in each L1 cache.
func (c *Config) L1Sets() int { return c.L1Bytes / (c.L1Ways * c.BlockBytes) }

// LLCSetsPerBank returns the number of sets in each LLC bank.
func (c *Config) LLCSetsPerBank() int { return c.LLCBankBytes / (c.LLCWays * c.BlockBytes) }

// LLCTotalBytes returns the aggregate LLC capacity across all banks.
func (c *Config) LLCTotalBytes() int { return c.LLCBankBytes * c.NumCores }

// NumClusters returns the number of LLC replication clusters.
func (c *Config) NumClusters() int {
	return (c.MeshWidth / c.ClusterWidth) * (c.MeshHeight / c.ClusterHeight)
}

// BanksPerCluster returns the number of LLC banks in each cluster.
func (c *Config) BanksPerCluster() int { return c.ClusterWidth * c.ClusterHeight }

// TileX returns the mesh column of a tile.
func (c *Config) TileX(tile int) int { return tile % c.MeshWidth }

// TileY returns the mesh row of a tile.
func (c *Config) TileY(tile int) int { return tile / c.MeshWidth }

// TileAt returns the tile id at mesh coordinates (x, y).
func (c *Config) TileAt(x, y int) int { return y*c.MeshWidth + x }

// Hops returns the Manhattan distance between two tiles, which is the
// number of NoC hops an XY-routed message traverses. Hops(t, t) == 0,
// matching the paper's NUCA-distance metric where a local access counts 0.
func (c *Config) Hops(from, to int) int {
	dx := c.TileX(from) - c.TileX(to)
	if dx < 0 {
		dx = -dx
	}
	dy := c.TileY(from) - c.TileY(to)
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// HopLatency returns the NoC latency in cycles of a message traversing h
// hops. An h-hop message passes through h+1 routers (injection at the
// source, one per intermediate tile, ejection at the destination) and h
// links, so the latency is (h+1) routers plus h links. A zero-hop
// (local) message never enters the network and pays no NoC latency.
func (c *Config) HopLatency(h int) int {
	if h <= 0 {
		return 0
	}
	return (h+1)*c.RouterLatency + h*c.LinkLatency
}

// Diameter returns the largest Hops value over any tile pair: the
// corner-to-corner Manhattan distance (W-1)+(H-1) of the mesh.
func (c *Config) Diameter() int {
	return (c.MeshWidth - 1) + (c.MeshHeight - 1)
}

// MeanHops returns the expected Hops between two independently uniform
// tiles — the closed-form average NUCA distance of the mesh. The mean
// absolute difference of two uniform draws from {0..n-1} is (n^2-1)/(3n),
// summed per dimension; on the 4x4 mesh this is the paper's 2.5.
func (c *Config) MeanHops() float64 {
	w, h := float64(c.MeshWidth), float64(c.MeshHeight)
	return (w*w-1)/(3*w) + (h*h-1)/(3*h)
}

// ClusterOf returns the replication-cluster id the tile belongs to.
func (c *Config) ClusterOf(tile int) int {
	cx := c.TileX(tile) / c.ClusterWidth
	cy := c.TileY(tile) / c.ClusterHeight
	return cy*(c.MeshWidth/c.ClusterWidth) + cx
}

// ClusterBanks returns the tile ids (LLC banks) of the given cluster, in
// ascending order. The within-cluster interleaving position of a block is
// its index in this slice.
func (c *Config) ClusterBanks(cluster int) []int {
	cpr := c.MeshWidth / c.ClusterWidth // clusters per row
	cx := (cluster % cpr) * c.ClusterWidth
	cy := (cluster / cpr) * c.ClusterHeight
	banks := make([]int, 0, c.BanksPerCluster())
	for y := cy; y < cy+c.ClusterHeight; y++ {
		for x := cx; x < cx+c.ClusterWidth; x++ {
			banks = append(banks, c.TileAt(x, y))
		}
	}
	return banks
}

// ClusterMask returns the bank mask with the bits of every bank in the
// tile's local cluster set.
func (c *Config) ClusterMask(tile int) Mask {
	var m Mask
	for _, b := range c.ClusterBanks(c.ClusterOf(tile)) {
		m = m.Set(b)
	}
	return m
}

// NearestMemCtrl returns the memory-controller tile closest (in hops) to
// the given tile, breaking ties by lower tile id for determinism.
func (c *Config) NearestMemCtrl(tile int) int {
	best, bestHops := -1, 1<<30
	for _, mc := range c.MemCtrlTiles {
		if h := c.Hops(tile, mc); h < bestHops || (h == bestHops && mc < best) {
			best, bestHops = mc, h
		}
	}
	return best
}
