package noc

import (
	"fmt"

	"tdnuca/internal/trace"
)

// Routing and link failure. Every message follows the hop table that
// rebuildRoutes computes with one BFS per destination over the live
// links: minimal-hop routes, breaking ties in the fixed direction order
// East, West, North, South. That order prefers X-dimension moves, so on
// a healthy mesh the table is exactly dimension-ordered XY routing, and a
// route that dodges a dead link rejoins the XY path as soon as the
// detour allows. The table is a pure function of the dead-link set —
// deterministic by construction (TestFaultRouteProperties pins this) —
// and it never routes over a dead link, because the BFS only crosses
// live ones.

// noHop marks a hop-table entry with no next hop: the tile is the
// destination, or the dead links cut it off from the destination.
const noHop = 0xff

// FailLink kills the bidirectional mesh link between two adjacent tiles
// and rebuilds the hop table around it. It returns an error when the
// tiles are not mesh neighbours or the link is already dead. Killing
// links can partition the mesh; that is detected (and panics with a
// diagnostic) only when a message actually needs the missing route, so a
// degraded experiment can retire tiles nobody talks to.
func (n *Network) FailLink(a, b int) error {
	if a < 0 || a >= n.cfg.NumCores || b < 0 || b >= n.cfg.NumCores {
		return fmt.Errorf("noc: link %d-%d out of range [0,%d)", a, b, n.cfg.NumCores)
	}
	dir := n.linkDir(a, b)
	if dir < 0 {
		return fmt.Errorf("noc: tiles %d and %d are not adjacent, no link to fail", a, b)
	}
	if n.dead[a][dir] {
		return fmt.Errorf("noc: link %d-%d already failed", a, b)
	}
	n.dead[a][dir] = true
	n.dead[b][dir^1] = true
	n.rebuildRoutes()
	if n.tr != nil {
		n.tr.EmitUntimed(trace.EvLinkFail, a, uint64(b), int32(dir))
	}
	return nil
}

// DeadLinks returns the failed links as sorted (lower, higher) tile
// pairs, one entry per bidirectional link. Tiles ascend and each tile's
// East neighbour (tile+1) precedes its South one (tile+MeshWidth), so
// the pairs come out sorted.
func (n *Network) DeadLinks() [][2]int {
	var out [][2]int
	for tile := range n.dead {
		for dir := 0; dir < 4; dir++ {
			if !n.dead[tile][dir] {
				continue
			}
			if other := n.neighbor(tile, dir); tile < other {
				//tdnuca:allow(alloc) diagnostic-only: reached from the hot path only while building an unreachable-tile panic message
				out = append(out, [2]int{tile, other})
			}
		}
	}
	return out
}

// linkDir returns the direction of the link from tile a to tile b, or
// -1 when they are not mesh neighbours.
func (n *Network) linkDir(a, b int) int {
	for dir := 0; dir < 4; dir++ {
		if n.neighbor(a, dir) == b {
			return dir
		}
	}
	return -1
}

// neighbor returns the tile one hop away in the direction, or -1 when the
// move would leave the mesh.
func (n *Network) neighbor(tile, dir int) int {
	x, y := n.cfg.TileX(tile), n.cfg.TileY(tile)
	switch dir {
	case East:
		x++
	case West:
		x--
	case North:
		y--
	case South:
		y++
	}
	if x < 0 || x >= n.cfg.MeshWidth || y < 0 || y >= n.cfg.MeshHeight {
		return -1
	}
	return n.cfg.TileAt(x, y)
}

// rebuildRoutes recomputes the hop table with one BFS per destination
// over the live links (dead links are symmetric, so a tile's live
// neighbours are also the tiles that can send into it). A tile's entry
// is set when the BFS dequeues it at distance d: every tile at distance
// d-1 is known by then, and the first direction in East, West, North,
// South order that leads to one of them wins.
func (n *Network) rebuildRoutes() {
	cores := n.cfg.NumCores
	live := make([][4]int, cores)
	for tile := range live {
		for dir := 0; dir < 4; dir++ {
			live[tile][dir] = -1
			if !n.dead[tile][dir] {
				live[tile][dir] = n.neighbor(tile, dir)
			}
		}
	}
	dist := make([]int, cores)
	queue := make([]int, cores)
	for to := 0; to < cores; to++ {
		row := n.hop[to*cores : (to+1)*cores]
		for i := range dist {
			dist[i] = -1
			row[i] = noHop
		}
		dist[to] = 0
		queue[0] = to
		for head, tail := 0, 1; head < tail; head++ {
			cur := queue[head]
			for dir, nb := range live[cur] {
				switch {
				case nb < 0:
				case dist[nb] < 0:
					dist[nb] = dist[cur] + 1
					queue[tail] = nb
					tail++
				case row[cur] == noHop && dist[nb] == dist[cur]-1:
					row[cur] = uint8(dir)
				}
			}
		}
	}
}

// unreachable aborts a send that the dead links have partitioned away.
func (n *Network) unreachable(from, to int) {
	//tdnuca:allow(alloc) panic path: allocates only when the mesh is partitioned, immediately before aborting the run
	panic(fmt.Sprintf("noc: tile %d unreachable from %d with dead links %v", to, from, n.DeadLinks()))
}
