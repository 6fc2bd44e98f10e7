package noc

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"tdnuca/internal/arch"
	"tdnuca/internal/sim"
)

func TestFailLinkValidation(t *testing.T) {
	n, cfg := mesh(t)
	if len(n.DeadLinks()) > 0 {
		t.Fatal("fresh network already has dead links")
	}
	if err := n.FailLink(-1, 0); err == nil {
		t.Error("out-of-range tile accepted")
	}
	if err := n.FailLink(0, cfg.NumCores); err == nil {
		t.Error("out-of-range tile accepted")
	}
	if err := n.FailLink(0, 5); err == nil {
		t.Error("non-adjacent tiles accepted (0 and 5 are diagonal)")
	}
	if err := n.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink(1, 0); err == nil || !strings.Contains(err.Error(), "already failed") {
		t.Errorf("double failure: %v", err)
	}
	if got := n.DeadLinks(); len(got) != 1 || got[0] != [2]int{0, 1} {
		t.Errorf("DeadLinks = %v, want [[0 1]]", got)
	}
	for _, l := range [][2]int{{2, 1}, {4, 0}} {
		if err := n.FailLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := n.DeadLinks(), [][2]int{{0, 1}, {0, 4}, {1, 2}}; !slices.Equal(got, want) {
		t.Errorf("DeadLinks = %v, want sorted %v", got, want)
	}
	if !n.dead[0][East] || !n.dead[1][West] {
		t.Error("directed dead flags not symmetric")
	}
}

// failSafeLinks kills up to MeshHeight-1 horizontal links, each in a
// distinct row, leaving at least one row fully intact. Such a set can
// never partition the mesh: every column is whole, so any tile reaches
// the intact row, crosses there, and comes back.
func failSafeLinks(t *testing.T, n *Network, cfg *arch.Config, rng *sim.RNG) int {
	t.Helper()
	rows := rng.Intn(cfg.MeshHeight) // 0..H-1 rows get a gap
	for r := 0; r < rows; r++ {
		x := rng.Intn(cfg.MeshWidth - 1)
		if err := n.FailLink(cfg.TileAt(x, r), cfg.TileAt(x+1, r)); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// TestFaultRouteProperties is the reroute property test: for seeded
// random non-partitioning dead-link sets, every route still starts and
// ends correctly, takes only adjacent live links, is minimal over the
// surviving topology (never shorter than Manhattan), and is identical
// when the same failures are replayed into a fresh network.
func TestFaultRouteProperties(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := arch.DefaultConfig()
		a, b := New(&cfg), New(&cfg)
		rng := sim.NewRNG(seed)
		rows := failSafeLinks(t, a, &cfg, rng)
		rng2 := sim.NewRNG(seed)
		failSafeLinks(t, b, &cfg, rng2)
		if rows == 0 {
			return len(a.DeadLinks()) == 0
		}
		for from := 0; from < cfg.NumCores; from++ {
			for to := 0; to < cfg.NumCores; to++ {
				p := route(a, from, to)
				if p[0] != from || p[len(p)-1] != to {
					return false
				}
				if len(p)-1 < cfg.Hops(from, to) {
					return false // shorter than Manhattan is impossible
				}
				for i := 1; i < len(p); i++ {
					if cfg.Hops(p[i-1], p[i]) != 1 {
						return false // non-adjacent step
					}
					if a.dead[p[i-1]][a.linkDir(p[i-1], p[i])] {
						return false // crossed a dead link
					}
				}
				q := route(b, from, to)
				if len(q) != len(p) {
					return false // not deterministic
				}
				for i := range p {
					if p[i] != q[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestFaultRouteMatchesXYWhenPossible: routes that never needed the dead
// link are unchanged — the table's East,West,North,South preference
// reproduces the reference XY route wherever it can.
func TestFaultRouteMatchesXYWhenPossible(t *testing.T) {
	n, cfg := mesh(t)
	if err := n.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	for from := 0; from < cfg.NumCores; from++ {
		for to := 0; to < cfg.NumCores; to++ {
			want := xyRoute(cfg, from, to)
			crosses := false
			for i := 1; i < len(want); i++ {
				if (want[i-1] == 0 && want[i] == 1) || (want[i-1] == 1 && want[i] == 0) {
					crosses = true
				}
			}
			if crosses {
				continue
			}
			if got := route(n, from, to); !slices.Equal(got, want) {
				t.Fatalf("route(%d,%d) = %v, want XY %v", from, to, got, want)
			}
		}
	}
}

// TestFaultSendAccounting: the table-routed Send keeps the healthy
// accounting rules — per-link bytes, byte-hops = bytes x hops, the
// h+1-routers flit rule, and HopLatency over the detour length.
func TestFaultSendAccounting(t *testing.T) {
	n, cfg := mesh(t)
	if err := n.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	// 0 -> 1 must detour around the dead link: 3 hops instead of 1.
	hops, lat := n.Send(0, 1, 64)
	if hops != 3 {
		t.Fatalf("Send(0,1) detour hops = %d, want 3", hops)
	}
	if lat != cfg.HopLatency(3) {
		t.Errorf("detour latency = %d, want %d", lat, cfg.HopLatency(3))
	}
	if n.ByteHops() != 64*3 {
		t.Errorf("byte-hops = %d, want %d", n.ByteHops(), 64*3)
	}
	if n.FlitHops() != 4 {
		t.Errorf("flit-hops = %d, want hops+1 = 4", n.FlitHops())
	}
	var linkSum uint64
	for tile := 0; tile < cfg.NumCores; tile++ {
		for dir := 0; dir < 4; dir++ {
			linkSum += n.LinkBytes(tile, dir)
		}
	}
	if linkSum != 64*3 {
		t.Errorf("per-link bytes sum = %d, want %d", linkSum, 64*3)
	}
}

// TestFaultSendAtParity: with contention enabled but no load, the
// table-routed timed send costs exactly the topological latency of its
// detour, mirroring the healthy Send/SendAt parity contract.
func TestFaultSendAtParity(t *testing.T) {
	cfg := arch.DefaultConfig()
	for from := 0; from < cfg.NumCores; from++ {
		for to := 0; to < cfg.NumCores; to++ {
			// Fresh networks per pair: the queueing model keeps per-link
			// history, and parity holds for an unloaded network only.
			plain, timed := New(&cfg), New(&cfg)
			if err := plain.FailLink(5, 6); err != nil {
				t.Fatal(err)
			}
			timed.EnableContention(16)
			if err := timed.FailLink(5, 6); err != nil {
				t.Fatal(err)
			}
			h1, l1 := plain.Send(from, to, 8)
			h2, l2 := timed.SendAt(from, to, 8, 0)
			if h1 != h2 {
				t.Fatalf("Send/SendAt(%d,%d) hops %d vs %d", from, to, h1, h2)
			}
			// 8 bytes fit one 16-byte flit, so serialization equals the
			// link latency and an unloaded network adds nothing on top.
			if sim.Cycles(l1) != l2 {
				t.Fatalf("Send/SendAt(%d,%d) latency %d vs %d", from, to, l1, l2)
			}
			if plain.ByteHops() != timed.ByteHops() || plain.FlitHops() != timed.FlitHops() {
				t.Fatalf("accounting diverged at (%d,%d): byte-hops %d vs %d, flit-hops %d vs %d",
					from, to, plain.ByteHops(), timed.ByteHops(), plain.FlitHops(), timed.FlitHops())
			}
		}
	}
}

// TestPartitionPanicsWithDiagnostic: isolating a tile is allowed (nobody
// may ever talk to it), but routing to it must abort with a message
// naming the unreachable tile and the dead links.
func TestPartitionPanicsWithDiagnostic(t *testing.T) {
	n, _ := mesh(t)
	// Tile 0's only links are East (to 1) and South (to 4).
	if err := n.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink(0, 4); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "unreachable") || !strings.Contains(s, "dead links") {
			t.Fatalf("panic = %v, want unreachable-tile diagnostic", r)
		}
	}()
	n.Send(5, 0, 64)
	t.Fatal("Send into a partitioned-off tile did not panic")
}
