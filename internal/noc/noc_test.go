package noc

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"tdnuca/internal/arch"
	"tdnuca/internal/sim"
)

func mesh(t *testing.T) (*Network, *arch.Config) {
	t.Helper()
	cfg := arch.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(&cfg), &cfg
}

// route walks the hop table from one tile to another and returns the
// tiles visited, both endpoints included.
func route(n *Network, from, to int) []int {
	row := to * n.cfg.NumCores
	path := []int{from}
	for cur := from; cur != to; {
		cur += n.step[n.hop[row+cur]]
		path = append(path, cur)
	}
	return path
}

// xyStep is one link of a reference XY walk: the tile a message leaves
// and the direction it leaves in.
type xyStep struct{ tile, dir int }

// xyWalk is the independent routing oracle: dimension-ordered XY
// routing as loops over mesh coordinates, X first, then Y. At most one
// of the two X loops and one of the two Y loops runs.
func xyWalk(cfg *arch.Config, from, to int) []xyStep {
	var steps []xyStep
	x, y, cur := cfg.TileX(from), cfg.TileY(from), from
	tx, ty, w := cfg.TileX(to), cfg.TileY(to), cfg.MeshWidth
	for ; x < tx; x++ {
		steps = append(steps, xyStep{cur, East})
		cur++
	}
	for ; x > tx; x-- {
		steps = append(steps, xyStep{cur, West})
		cur--
	}
	for ; y < ty; y++ {
		steps = append(steps, xyStep{cur, South})
		cur += w
	}
	for ; y > ty; y-- {
		steps = append(steps, xyStep{cur, North})
		cur -= w
	}
	return steps
}

// xyRoute is the reference XY route as the tiles visited, both
// endpoints included.
func xyRoute(cfg *arch.Config, from, to int) []int {
	path := []int{}
	for _, s := range xyWalk(cfg, from, to) {
		path = append(path, s.tile)
	}
	return append(path, to)
}

// TestTableMatchesXYOracle: on a healthy mesh the hop table is XY
// routing. For every (from, to) pair on square, oblong and one-column
// meshes the table's route is the reference XY route, and Send and the
// contended SendAt charge the same links, hops and latency as the
// reference walk does — SendAt's latency depends on the order in which
// warm links are crossed, so it checks the walk link by link.
func TestTableMatchesXYOracle(t *testing.T) {
	const bytes = 72
	for _, d := range [][2]int{{4, 4}, {8, 8}, {16, 16}, {8, 4}, {1, 3}} {
		t.Run(fmt.Sprintf("%dx%d", d[0], d[1]), func(t *testing.T) {
			cfg := arch.MeshConfig(d[0], d[1])
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			plain, timed := New(&cfg), New(&cfg)
			timed.EnableContention(cfg.LinkBandwidthBytes)
			occ := max(sim.Cycles((bytes+cfg.LinkBandwidthBytes-1)/cfg.LinkBandwidthBytes), sim.Cycles(cfg.LinkLatency))
			refBytes := make([][4]uint64, cfg.NumCores)
			refLinks := make([][4]linkState, cfg.NumCores)
			var now sim.Cycles
			for from := 0; from < cfg.NumCores; from++ {
				for to := 0; to < cfg.NumCores; to++ {
					steps := xyWalk(&cfg, from, to)
					if got, want := route(plain, from, to), xyRoute(&cfg, from, to); !slices.Equal(got, want) {
						t.Fatalf("route(%d,%d) = %v, want XY %v", from, to, got, want)
					}
					wantT := now
					for _, s := range steps {
						refBytes[s.tile][s.dir] += bytes
						wantT += sim.Cycles(cfg.RouterLatency)
						wantT += refLinks[s.tile][s.dir].serve(wantT, occ) + occ
					}
					if len(steps) > 0 {
						wantT += sim.Cycles(cfg.RouterLatency)
					}
					if hops, lat := plain.Send(from, to, bytes); hops != len(steps) || lat != cfg.HopLatency(len(steps)) {
						t.Fatalf("Send(%d,%d) = %d hops %d cycles, want %d hops %d cycles",
							from, to, hops, lat, len(steps), cfg.HopLatency(len(steps)))
					}
					if hops, lat := timed.SendAt(from, to, bytes, now); hops != len(steps) || lat != wantT-now {
						t.Fatalf("SendAt(%d,%d) = %d hops %d cycles, want %d hops %d cycles",
							from, to, hops, lat, len(steps), wantT-now)
					}
					now += 3
				}
				for tile := range refBytes {
					for dir := 0; dir < 4; dir++ {
						want := refBytes[tile][dir]
						if plain.LinkBytes(tile, dir) != want || timed.LinkBytes(tile, dir) != want {
							t.Fatalf("after sources 0..%d, link %d/%d carries %d (Send) and %d (SendAt) bytes, want %d",
								from, tile, dir, plain.LinkBytes(tile, dir), timed.LinkBytes(tile, dir), want)
						}
					}
				}
			}
		})
	}
}

func TestRouteEndpointsAndLength(t *testing.T) {
	n, cfg := mesh(t)
	for from := 0; from < cfg.NumCores; from++ {
		for to := 0; to < cfg.NumCores; to++ {
			p := route(n, from, to)
			if p[0] != from || p[len(p)-1] != to {
				t.Fatalf("route(%d,%d) endpoints = %v", from, to, p)
			}
			if len(p)-1 != cfg.Hops(from, to) {
				t.Errorf("route(%d,%d) hops = %d, want Manhattan %d", from, to, len(p)-1, cfg.Hops(from, to))
			}
			// Consecutive tiles must be mesh-adjacent.
			for i := 1; i < len(p); i++ {
				if cfg.Hops(p[i-1], p[i]) != 1 {
					t.Fatalf("route(%d,%d) non-adjacent step %d->%d", from, to, p[i-1], p[i])
				}
			}
		}
	}
}

func TestRouteIsXYOrdered(t *testing.T) {
	n, cfg := mesh(t)
	// From tile 0 (0,0) to tile 15 (3,3): X first then Y.
	p := route(n, 0, 15)
	want := []int{0, 1, 2, 3, 7, 11, 15}
	if len(p) != len(want) {
		t.Fatalf("route(0,15) = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("route(0,15) = %v, want %v", p, want)
		}
	}
	_ = cfg
}

func TestLocalSendIsFree(t *testing.T) {
	n, _ := mesh(t)
	hops, lat := n.Send(5, 5, 64)
	if hops != 0 || lat != 0 {
		t.Errorf("local send = %d hops %d cycles", hops, lat)
	}
	if n.ByteHops() != 0 {
		t.Error("local send accumulated byte-hops")
	}
	if n.Messages() != 1 {
		t.Error("local send not counted as a message")
	}
}

func TestSendAccounting(t *testing.T) {
	n, cfg := mesh(t)
	hops, lat := n.Send(0, 3, 100) // 3 hops east
	if hops != 3 {
		t.Fatalf("hops = %d, want 3", hops)
	}
	if lat != cfg.HopLatency(3) {
		t.Errorf("latency = %d, want %d", lat, cfg.HopLatency(3))
	}
	if n.ByteHops() != 300 {
		t.Errorf("byteHops = %d, want 300", n.ByteHops())
	}
	for tile := 0; tile < 3; tile++ {
		if got := n.LinkBytes(tile, East); got != 100 {
			t.Errorf("link %d-east bytes = %d, want 100", tile, got)
		}
	}
	if n.LinkBytes(3, East) != 0 {
		t.Error("bytes charged beyond destination")
	}
}

// TestFlitHopsCountRouters pins the h+1-router model: an h-hop message
// activates h+1 routers (injection, intermediates, ejection), and a
// local message activates none.
func TestFlitHopsCountRouters(t *testing.T) {
	n, _ := mesh(t)
	n.Send(5, 5, 64) // local: no routers
	if n.FlitHops() != 0 {
		t.Errorf("local send flitHops = %d, want 0", n.FlitHops())
	}
	n.Send(0, 3, 64) // 3 hops: 4 routers
	if n.FlitHops() != 4 {
		t.Errorf("3-hop send flitHops = %d, want 4", n.FlitHops())
	}
	n.Send(0, 15, 64) // 6 hops: 7 routers
	if n.FlitHops() != 4+7 {
		t.Errorf("after 6-hop send flitHops = %d, want 11", n.FlitHops())
	}

	// The contention path must count identically.
	c, cfg := mesh(t)
	c.EnableContention(cfg.LinkBandwidthBytes)
	c.SendAt(5, 5, 64, 0)
	c.SendAt(0, 3, 64, 0)
	c.SendAt(0, 15, 64, 0)
	if c.FlitHops() != n.FlitHops() {
		t.Errorf("contended flitHops = %d, want %d", c.FlitHops(), n.FlitHops())
	}
}

func TestCtrlAndDataSizes(t *testing.T) {
	n, cfg := mesh(t)
	n.SendCtrl(0, 1)
	if n.ByteHops() != uint64(cfg.CtrlMsgBytes) {
		t.Errorf("ctrl byteHops = %d, want %d", n.ByteHops(), cfg.CtrlMsgBytes)
	}
	n2, _ := mesh(t)
	n2.SendData(0, 1)
	if n2.ByteHops() != uint64(cfg.BlockBytes+cfg.DataHdrBytes) {
		t.Errorf("data byteHops = %d, want %d", n2.ByteHops(), cfg.BlockBytes+cfg.DataHdrBytes)
	}
	if n.CtrlMessages() != 1 || n2.DataMessages() != 1 {
		t.Error("message type counters wrong")
	}
}

func TestByteHopsConservation(t *testing.T) {
	// Total bytes over all links equals byteHops.
	f := func(pairs []uint8) bool {
		cfg := arch.DefaultConfig()
		n := New(&cfg)
		for _, p := range pairs {
			from := int(p) % cfg.NumCores
			to := int(p/16) % cfg.NumCores
			n.Send(from, to, 64)
		}
		var linkTotal uint64
		for tile := 0; tile < cfg.NumCores; tile++ {
			for dir := 0; dir < 4; dir++ {
				linkTotal += n.LinkBytes(tile, dir)
			}
		}
		return linkTotal == n.ByteHops()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxLinkBytes(t *testing.T) {
	n, _ := mesh(t)
	n.Send(0, 3, 10)
	n.Send(1, 3, 10) // link 1->2 and 2->3 now carry 20
	if got := n.MaxLinkBytes(); got != 20 {
		t.Errorf("MaxLinkBytes = %d, want 20", got)
	}
}

func TestEdgeTilesHaveNoPhantomLinks(t *testing.T) {
	// Routing from the east edge west and vice versa never indexes a
	// nonexistent link (would panic indexing past the mesh).
	n, cfg := mesh(t)
	for from := 0; from < cfg.NumCores; from++ {
		for to := 0; to < cfg.NumCores; to++ {
			n.Send(from, to, 1)
		}
	}
}

// netSink keeps BenchmarkNew's networks live.
var netSink *Network

// BenchmarkNew times building a network, which computes the whole hop
// table, on the paper's 4x4 mesh and on the largest square mesh.
func BenchmarkNew(b *testing.B) {
	for _, w := range []int{4, 16} {
		b.Run(fmt.Sprintf("%dx%d", w, w), func(b *testing.B) {
			cfg := arch.MeshConfig(w, w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				netSink = New(&cfg)
			}
		})
	}
}
