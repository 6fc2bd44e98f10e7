// Package noc models the 2D-mesh network-on-chip of the tiled CMP:
// dimension-ordered (XY) routing, router+link latency (Table I: 1 cycle
// each; an h-hop message crosses h+1 routers and h links), per-link byte
// counters, and the aggregate data-movement metric of Fig. 12 (bytes
// transferred through all routers, computed as payload bytes times hops
// traversed).
package noc

import (
	"fmt"

	"tdnuca/internal/arch"
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
)

// Network is the mesh interconnect. It is purely an accounting and
// latency model: messages are not buffered or arbitrated individually
// (see DESIGN.md on contention), but every byte and hop is counted, which
// is what the paper's NoC traffic and energy figures are built from.
type Network struct {
	cfg *arch.Config

	// xy[tile] is the tile's mesh column and row, so the healthy XY
	// walks step from tile to tile by ±1 and ±MeshWidth without dividing.
	xy []coord

	// linkBytes counts payload bytes crossing each directed link.
	// Links are indexed by (fromTile, direction).
	linkBytes [][4]uint64

	messages  uint64
	byteHops  uint64 // sum over messages of bytes*hops: Fig. 12's metric
	flitHops  uint64
	ctrlMsgs  uint64
	dataMsgs  uint64
	dataBytes uint64

	// Queueing contention model (see contention.go).
	contention bool
	bwBytes    int
	ctrlOcc    sim.Cycles // link occupancy of a control message
	dataOcc    sim.Cycles // link occupancy of a data message
	links      [][4]linkState
	queued     sim.Cycles

	// Link-failure state (see fault.go). faulty stays false until the
	// first FailLink, so healthy runs never leave the inlined XY paths.
	faulty bool
	dead   [][4]bool
	next   [][]int16 // next[dst][tile]: next hop toward dst, -1 unreachable

	// tr, when non-nil, receives one EvNoCMsg per routed message
	// (observation only; never alters routing or latency).
	tr *trace.Tracer
}

// SetTracer attaches (or with nil detaches) an event tracer. Tracing is
// observation-only: it never changes a counter or a latency.
func (n *Network) SetTracer(tr *trace.Tracer) { n.tr = tr }

// Directions of mesh links, used to index per-link counters.
const (
	East = iota
	West
	North
	South
)

// coord is a tile's position in the mesh.
type coord struct{ x, y int }

// New constructs the mesh for the given architecture.
func New(cfg *arch.Config) *Network {
	xy := make([]coord, cfg.NumCores)
	for tile := range xy {
		xy[tile] = coord{cfg.TileX(tile), cfg.TileY(tile)}
	}
	return &Network{
		cfg:       cfg,
		xy:        xy,
		linkBytes: make([][4]uint64, cfg.NumCores),
	}
}

// Route returns the XY-routed path from one tile to another as the
// sequence of tiles traversed, including both endpoints. XY routing moves
// along the X dimension first, then Y, and is deadlock-free on a mesh.
func (n *Network) Route(from, to int) []int {
	if n.faulty {
		return n.routeFaulty(from, to)
	}
	path := []int{from}
	src, dst, w := n.xy[from], n.xy[to], n.cfg.MeshWidth
	cur := from
	for x := src.x; x < dst.x; x++ {
		cur++
		path = append(path, cur)
	}
	for x := src.x; x > dst.x; x-- {
		cur--
		path = append(path, cur)
	}
	for y := src.y; y < dst.y; y++ {
		cur += w
		path = append(path, cur)
	}
	for y := src.y; y > dst.y; y-- {
		cur -= w
		path = append(path, cur)
	}
	return path
}

// Send accounts for a message of the given payload size travelling from
// one tile to another and returns the number of hops and the NoC latency
// in cycles. A message to the local tile takes zero hops and zero cycles.
// The XY walk is inlined (allocation-free) because Send sits on the
// simulator's hottest path; Route exists for tests and tooling. At most
// one of the two X loops and one of the two Y loops runs.
func (n *Network) Send(from, to, bytes int) (hops, latency int) {
	n.messages++
	if n.faulty {
		return n.sendFaulty(from, to, bytes)
	}
	src, dst, w := n.xy[from], n.xy[to], n.cfg.MeshWidth
	b := uint64(bytes)
	cur := from
	for x := src.x; x < dst.x; x++ {
		n.linkBytes[cur][East] += b
		cur++
	}
	for x := src.x; x > dst.x; x-- {
		n.linkBytes[cur][West] += b
		cur--
	}
	for y := src.y; y < dst.y; y++ {
		n.linkBytes[cur][South] += b
		cur += w
	}
	for y := src.y; y > dst.y; y-- {
		n.linkBytes[cur][North] += b
		cur -= w
	}
	hops = abs(dst.x-src.x) + abs(dst.y-src.y)
	n.byteHops += b * uint64(hops)
	if hops > 0 {
		n.flitHops += uint64(hops) + 1
	}
	if n.tr != nil {
		n.tr.EmitUntimed(trace.EvNoCMsg, from, b*uint64(hops), int32(to))
	}
	return hops, n.cfg.HopLatency(hops)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// SendCtrl accounts for a control message (request, invalidation, ack) of
// the configured control-message size.
func (n *Network) SendCtrl(from, to int) (hops, latency int) {
	n.ctrlMsgs++
	return n.Send(from, to, n.cfg.CtrlMsgBytes)
}

// SendData accounts for a data message carrying one cache block plus the
// data header.
func (n *Network) SendData(from, to int) (hops, latency int) {
	n.dataMsgs++
	n.dataBytes += uint64(n.cfg.BlockBytes)
	return n.Send(from, to, n.cfg.BlockBytes+n.cfg.DataHdrBytes)
}

func (n *Network) direction(from, to int) int {
	fx, fy := n.cfg.TileX(from), n.cfg.TileY(from)
	tx, ty := n.cfg.TileX(to), n.cfg.TileY(to)
	switch {
	case tx == fx+1 && ty == fy:
		return East
	case tx == fx-1 && ty == fy:
		return West
	case ty == fy-1 && tx == fx:
		return North
	case ty == fy+1 && tx == fx:
		return South
	}
	//tdnuca:allow(alloc) panic path: allocates only on a non-adjacent hop, immediately before aborting the run
	panic(fmt.Sprintf("noc: tiles %d and %d are not adjacent", from, to))
}

// ByteHops returns the aggregate payload bytes times hops traversed: the
// data-movement metric of Fig. 12.
func (n *Network) ByteHops() uint64 { return n.byteHops }

// FlitHops returns the total router traversals: an h-hop message passes
// h+1 routers (injection, intermediates, ejection), a zero-hop message
// none. This is the router-activation count the energy model charges
// RouterPerFlitNJ against, consistent with HopLatency's h+1-router cost.
func (n *Network) FlitHops() uint64 { return n.flitHops }

// Messages returns the total number of messages sent.
func (n *Network) Messages() uint64 { return n.messages }

// CtrlMessages returns how many control messages were sent.
func (n *Network) CtrlMessages() uint64 { return n.ctrlMsgs }

// DataMessages returns how many block-carrying messages were sent.
func (n *Network) DataMessages() uint64 { return n.dataMsgs }

// LinkBytes returns the payload bytes that crossed the directed link
// leaving the tile in the given direction.
func (n *Network) LinkBytes(tile, dir int) uint64 { return n.linkBytes[tile][dir] }

// MaxLinkBytes returns the most loaded directed link's byte count, a
// hotspot indicator used in tests and reports.
func (n *Network) MaxLinkBytes() uint64 {
	var max uint64
	for _, dirs := range n.linkBytes {
		for _, b := range dirs {
			if b > max {
				max = b
			}
		}
	}
	return max
}
