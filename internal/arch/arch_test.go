package arch

import (
	"testing"
	"testing/quick"
)

func TestDefaultConfigIsTableI(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("Table I config invalid: %v", err)
	}
	if c.NumCores != 16 || c.MeshWidth != 4 || c.MeshHeight != 4 {
		t.Errorf("topology = %d cores %dx%d, want 16 cores 4x4", c.NumCores, c.MeshWidth, c.MeshHeight)
	}
	if got := c.LLCTotalBytes(); got != 32<<20 {
		t.Errorf("LLC total = %d, want 32MB", got)
	}
	if c.L1Bytes != 32<<10 || c.L1Ways != 8 || c.L1Latency != 2 {
		t.Errorf("L1 = %dB/%dw/%dcyc, want 32KB/8w/2cyc", c.L1Bytes, c.L1Ways, c.L1Latency)
	}
	if c.LLCWays != 16 || c.LLCLatency != 15 {
		t.Errorf("LLC = %dw/%dcyc, want 16w/15cyc", c.LLCWays, c.LLCLatency)
	}
	if c.RRTEntries != 64 || c.RRTLatency != 1 {
		t.Errorf("RRT = %d entries/%dcyc, want 64/1", c.RRTEntries, c.RRTLatency)
	}
	if c.TLBEntries != 64 {
		t.Errorf("TLB entries = %d, want 64", c.TLBEntries)
	}
	if got := c.DirEntriesPerBank * c.NumCores; got != 512<<10 {
		t.Errorf("directory total entries = %d, want 512K", got)
	}
}

func TestScaledConfigValid(t *testing.T) {
	c := ScaledConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	if c.LLCTotalBytes() != 1<<20 {
		t.Errorf("scaled LLC total = %d, want 1MB", c.LLCTotalBytes())
	}
	// Scaled machine must keep Table I latencies and topology.
	d := DefaultConfig()
	if c.LLCLatency != d.LLCLatency || c.L1Latency != d.L1Latency || c.NumCores != d.NumCores {
		t.Error("scaled config changed latencies or topology")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := map[string]func(*Config){
		"core/mesh mismatch": func(c *Config) { c.NumCores = 15 },
		"non-pow2 block":     func(c *Config) { c.BlockBytes = 96 },
		"page < block":       func(c *Config) { c.PageBytes = 32 },
		"L1 not divisible":   func(c *Config) { c.L1Bytes = 1000 },
		"LLC not divisible":  func(c *Config) { c.LLCBankBytes = 3000 },
		"zero TLB":           func(c *Config) { c.TLBEntries = 0 },
		"negative RRT":       func(c *Config) { c.RRTEntries = -1 },
		"negative RRT lat":   func(c *Config) { c.RRTLatency = -1 },
		"zero banks":         func(c *Config) { c.NumCores, c.MeshWidth, c.MeshHeight = 0, 0, 0 },
		"negative mesh":      func(c *Config) { c.MeshWidth, c.MeshHeight = -4, -4 },
		"L1 over bank":       func(c *Config) { c.LLCBankBytes = 16 << 10 },
		"negative DRAM lat":  func(c *Config) { c.DRAMLatency = -1 },
		"negative link lat":  func(c *Config) { c.LinkLatency = -1 },
		"contended zero bw":  func(c *Config) { c.NoCContention = true; c.LinkBandwidthBytes = 0 },
		"bad cluster tiling": func(c *Config) { c.ClusterWidth = 3 },
		"no mem controllers": func(c *Config) { c.MemCtrlTiles = nil },
		"mem ctrl OOB":       func(c *Config) { c.MemCtrlTiles = []int{99} },
		"dir not divisible":  func(c *Config) { c.DirEntriesPerBank = 33 },
		"dir below lines":    func(c *Config) { c.DirEntriesPerBank = 16 << 10 },
		"too many cores":     func(c *Config) { c.NumCores = 400; c.MeshWidth = 20; c.MeshHeight = 20 },
	}
	for name, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken config", name)
		}
	}
	// RRTEntries == 0 is a valid arch config ("no RRT"): only policies
	// that use an RRT reject it, at construction time.
	c := DefaultConfig()
	c.RRTEntries = 0
	if err := c.Validate(); err != nil {
		t.Errorf("zero RRT entries should be arch-valid (policy-level check): %v", err)
	}
}

func TestTileCoordinatesRoundTrip(t *testing.T) {
	c := DefaultConfig()
	for tile := 0; tile < c.NumCores; tile++ {
		if got := c.TileAt(c.TileX(tile), c.TileY(tile)); got != tile {
			t.Errorf("TileAt(TileX, TileY) = %d, want %d", got, tile)
		}
	}
}

func TestHopsIsManhattanMetric(t *testing.T) {
	c := DefaultConfig()
	for a := 0; a < c.NumCores; a++ {
		if c.Hops(a, a) != 0 {
			t.Errorf("Hops(%d,%d) != 0", a, a)
		}
		for b := 0; b < c.NumCores; b++ {
			if c.Hops(a, b) != c.Hops(b, a) {
				t.Errorf("Hops not symmetric for (%d,%d)", a, b)
			}
			for m := 0; m < c.NumCores; m++ {
				if c.Hops(a, b) > c.Hops(a, m)+c.Hops(m, b) {
					t.Errorf("triangle inequality violated via %d for (%d,%d)", m, a, b)
				}
			}
		}
	}
	// Corner-to-corner on a 4x4 mesh is the diameter, 6 hops.
	if got := c.Hops(0, 15); got != 6 {
		t.Errorf("Hops(0,15) = %d, want 6", got)
	}
}

func TestAverageNUCADistanceMatchesTheory(t *testing.T) {
	// The paper notes the theoretical average NUCA distance of a 4x4 mesh
	// under uniform interleaving is 2.5.
	c := DefaultConfig()
	sum := 0
	for a := 0; a < c.NumCores; a++ {
		for b := 0; b < c.NumCores; b++ {
			sum += c.Hops(a, b)
		}
	}
	avg := float64(sum) / float64(c.NumCores*c.NumCores)
	if avg != 2.5 {
		t.Errorf("theoretical average NUCA distance = %v, want 2.5", avg)
	}
}

func TestClusters(t *testing.T) {
	c := DefaultConfig()
	if c.NumClusters() != 4 || c.BanksPerCluster() != 4 {
		t.Fatalf("clusters = %dx%d banks, want 4x4", c.NumClusters(), c.BanksPerCluster())
	}
	seen := map[int]bool{}
	for cl := 0; cl < c.NumClusters(); cl++ {
		banks := c.ClusterBanks(cl)
		if len(banks) != 4 {
			t.Fatalf("cluster %d has %d banks", cl, len(banks))
		}
		for _, b := range banks {
			if seen[b] {
				t.Errorf("bank %d in two clusters", b)
			}
			seen[b] = true
			if c.ClusterOf(b) != cl {
				t.Errorf("ClusterOf(%d) = %d, want %d", b, c.ClusterOf(b), cl)
			}
		}
	}
	if len(seen) != c.NumCores {
		t.Errorf("clusters cover %d banks, want %d", len(seen), c.NumCores)
	}
	// Quadrant check: tile 0 (0,0) and tile 5 (1,1) share a cluster;
	// tile 0 and tile 2 (2,0) do not.
	if c.ClusterOf(0) != c.ClusterOf(5) {
		t.Error("tiles 0 and 5 should share the top-left quadrant")
	}
	if c.ClusterOf(0) == c.ClusterOf(2) {
		t.Error("tiles 0 and 2 should be in different quadrants")
	}
	// Every bank in a tile's cluster is within the cluster diameter.
	diam := c.ClusterWidth - 1 + c.ClusterHeight - 1
	for tile := 0; tile < c.NumCores; tile++ {
		for _, b := range c.ClusterMask(tile).Bits() {
			if h := c.Hops(tile, b); h > diam {
				t.Errorf("tile %d to cluster bank %d is %d hops > cluster diameter %d", tile, b, h, diam)
			}
		}
	}
}

func TestNearestMemCtrl(t *testing.T) {
	c := DefaultConfig()
	for tile := 0; tile < c.NumCores; tile++ {
		mc := c.NearestMemCtrl(tile)
		h := c.Hops(tile, mc)
		for _, other := range c.MemCtrlTiles {
			if c.Hops(tile, other) < h {
				t.Errorf("tile %d: controller %d (%d hops) beats chosen %d (%d hops)",
					tile, other, c.Hops(tile, other), mc, h)
			}
		}
	}
	// A controller tile is its own nearest controller.
	for _, mc := range c.MemCtrlTiles {
		if c.NearestMemCtrl(mc) != mc {
			t.Errorf("NearestMemCtrl(%d) = %d, want itself", mc, c.NearestMemCtrl(mc))
		}
	}
}

func TestMaskBasics(t *testing.T) {
	var m Mask
	if !m.IsEmpty() || m.Count() != 0 || m.Single() != -1 {
		t.Error("zero mask misbehaves")
	}
	m = m.Set(3).Set(7).Set(3)
	if m.Count() != 2 || !m.Has(3) || !m.Has(7) || m.Has(5) {
		t.Errorf("mask after Set = %v", m.Bits())
	}
	if m.Single() != -1 {
		t.Error("Single on two-bit mask should be -1")
	}
	m = m.Clear(7)
	if m.Single() != 3 {
		t.Errorf("Single = %d, want 3", m.Single())
	}
	if got := MaskAll(16).Count(); got != 16 {
		t.Errorf("MaskAll(16).Count() = %d", got)
	}
	if got := MaskAll(64).Count(); got != 64 {
		t.Errorf("MaskAll(64).Count() = %d", got)
	}
	if got := MaskOf(0, 5, 15); got.Count() != 3 || !got.Has(5) {
		t.Errorf("MaskOf = %v", got.Bits())
	}
}

func TestMaskNthBit(t *testing.T) {
	m := MaskOf(2, 5, 9, 14)
	want := []int{2, 5, 9, 14}
	for i, w := range want {
		if got := m.NthBit(i); got != w {
			t.Errorf("NthBit(%d) = %d, want %d", i, got, w)
		}
	}
	if m.NthBit(4) != -1 {
		t.Error("NthBit past end should be -1")
	}
	if (Mask{}).NthBit(0) != -1 {
		t.Error("NthBit on empty mask should be -1")
	}
}

func TestMaskPropertyBitsRoundTrip(t *testing.T) {
	f := func(v uint16) bool {
		m := MaskFromWord(uint64(v))
		rebuilt := MaskOf(m.Bits()...)
		if rebuilt != m {
			return false
		}
		// Bits are strictly ascending and NthBit agrees with Bits.
		bitsList := m.Bits()
		for i, b := range bitsList {
			if i > 0 && bitsList[i-1] >= b {
				return false
			}
			if m.NthBit(i) != b {
				return false
			}
		}
		return len(bitsList) == m.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaskString(t *testing.T) {
	if got := MaskOf(0).String(); got != "0000000000000001" {
		t.Errorf("String = %q", got)
	}
	if got := MaskOf(15).String(); got != "1000000000000000" {
		t.Errorf("String = %q", got)
	}
}

func TestHopLatency(t *testing.T) {
	c := DefaultConfig()
	if got := c.HopLatency(0); got != 0 {
		t.Errorf("HopLatency(0) = %d, want 0", got)
	}
	// An h-hop message crosses h+1 routers and h links.
	if got := c.HopLatency(1); got != 2*c.RouterLatency+c.LinkLatency {
		t.Errorf("HopLatency(1) = %d, want %d", got, 2*c.RouterLatency+c.LinkLatency)
	}
	if got := c.HopLatency(3); got != 4*c.RouterLatency+3*c.LinkLatency {
		t.Errorf("HopLatency(3) = %d, want %d", got, 4*c.RouterLatency+3*c.LinkLatency)
	}
}
