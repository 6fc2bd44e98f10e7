package noc

import (
	"testing"
	"testing/quick"

	"tdnuca/internal/arch"
	"tdnuca/internal/sim"
)

// bfsDist computes reference shortest-path distances from src over the
// surviving links — the independent oracle the fault router is checked
// against on the generalized meshes.
func bfsDist(n *Network, cfg *arch.Config, src int) []int {
	dist := make([]int, cfg.NumCores)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for dir := 0; dir < 4; dir++ {
			nb := n.neighbor(cur, dir)
			if nb < 0 || dist[nb] >= 0 || n.dead[cur][dir] {
				continue
			}
			dist[nb] = dist[cur] + 1
			queue = append(queue, nb)
		}
	}
	return dist
}

// TestBigMeshHealthyRouting: on 8x8 and 16x16 meshes the healthy XY path
// has exactly Hops(from,to) links and Send/HopLatency agree with the
// closed-form hop count for random pairs.
func TestBigMeshHealthyRouting(t *testing.T) {
	for _, d := range [][2]int{{8, 8}, {16, 16}} {
		cfg := arch.MeshConfig(d[0], d[1])
		n := New(&cfg)
		f := func(a, b uint16) bool {
			from, to := int(a)%cfg.NumCores, int(b)%cfg.NumCores
			p := route(n, from, to)
			if len(p)-1 != cfg.Hops(from, to) {
				return false
			}
			hops, lat := n.Send(from, to, 64)
			return hops == cfg.Hops(from, to) && lat == cfg.HopLatency(hops)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%dx%d: %v", d[0], d[1], err)
		}
	}
}

// TestBigMeshFaultRoutesAreShortest is the generalized-mesh reroute
// property: for seeded random non-partitioning dead-link sets on 8x8 and
// 16x16 meshes, every table route is exactly a shortest path over the
// surviving links (BFS oracle), crosses only live adjacent links, and
// replays identically into a fresh network.
func TestBigMeshFaultRoutesAreShortest(t *testing.T) {
	for _, d := range [][2]int{{8, 8}, {16, 16}} {
		d := d
		cfg := arch.MeshConfig(d[0], d[1])
		f := func(seed uint64) bool {
			a, b := New(&cfg), New(&cfg)
			rng := sim.NewRNG(seed)
			rows := failSafeLinks(t, a, &cfg, rng)
			failSafeLinks(t, b, &cfg, sim.NewRNG(seed))
			if rows == 0 {
				return len(a.DeadLinks()) == 0
			}
			// Sampled sources keep 16x16 (65k pairs x destinations) cheap;
			// the seeded picks still cover the mesh across quick iterations.
			for s := 0; s < 8; s++ {
				from := rng.Intn(cfg.NumCores)
				dist := bfsDist(a, &cfg, from)
				for to := 0; to < cfg.NumCores; to++ {
					p := route(a, from, to)
					if p[0] != from || p[len(p)-1] != to {
						return false
					}
					if len(p)-1 != dist[to] {
						return false // not a shortest surviving path
					}
					for i := 1; i < len(p); i++ {
						if cfg.Hops(p[i-1], p[i]) != 1 {
							return false
						}
						if a.dead[p[i-1]][a.linkDir(p[i-1], p[i])] {
							return false
						}
					}
					q := route(b, from, to)
					if len(q) != len(p) {
						return false
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
		if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
			t.Errorf("%dx%d: %v", d[0], d[1], err)
		}
	}
}

// TestBigMeshFaultSendMatchesRoute: on a degraded 8x8 mesh the Send
// accounting (hops, latency, byte-hops) matches the detoured route, not
// the healthy Manhattan distance.
func TestBigMeshFaultSendMatchesRoute(t *testing.T) {
	cfg := arch.MeshConfig(8, 8)
	n := New(&cfg)
	// Wall off a column segment so several routes must detour.
	for _, y := range []int{2, 3, 4} {
		if err := n.FailLink(cfg.TileAt(3, y), cfg.TileAt(4, y)); err != nil {
			t.Fatal(err)
		}
	}
	from, to := cfg.TileAt(3, 3), cfg.TileAt(4, 3)
	p := route(n, from, to)
	if len(p)-1 <= cfg.Hops(from, to) {
		t.Fatalf("route %v did not detour around the dead wall", p)
	}
	before := n.ByteHops()
	hops, lat := n.Send(from, to, 100)
	if hops != len(p)-1 {
		t.Errorf("Send hops = %d, route has %d", hops, len(p)-1)
	}
	if lat != cfg.HopLatency(hops) {
		t.Errorf("Send latency = %d, want HopLatency(%d) = %d", lat, hops, cfg.HopLatency(hops))
	}
	if got := n.ByteHops() - before; got != uint64(100*hops) {
		t.Errorf("byte-hops charged %d, want %d", got, 100*hops)
	}
}
