// Package noc models the 2D-mesh network-on-chip of the tiled CMP:
// dimension-ordered (XY) routing over a hop table, router+link latency
// (Table I: 1 cycle each; an h-hop message crosses h+1 routers and h
// links), per-link byte counters, and the aggregate data-movement metric
// of Fig. 12 (bytes transferred through all routers, computed as payload
// bytes times hops traversed).
package noc

import (
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

	// hop[to*NumCores+cur] is the direction a message at tile cur takes
	// toward tile to, or noHop when cur is to or cannot reach it (see
	// fault.go).
	hop []uint8

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

	// step[dir] is the tile-number offset of one hop in direction dir,
	// so the walks never divide.
	step [4]int

	// dead[tile][dir] marks a failed directed link; failures are always
	// symmetric.
	dead [][4]bool

	// tr, when non-nil, receives one EvNoCMsg per routed message
	// (observation only; never alters routing or latency).
	tr *trace.Tracer
}

// SetTracer attaches (or with nil detaches) an event tracer. Tracing is
// observation-only: it never changes a counter or a latency.
func (n *Network) SetTracer(tr *trace.Tracer) { n.tr = tr }

// Directions of mesh links, used to index per-link counters. A
// direction's reverse is dir^1.
const (
	East = iota
	West
	North
	South
)

// New constructs the mesh for the given architecture, with every link
// alive.
func New(cfg *arch.Config) *Network {
	w := cfg.MeshWidth
	n := &Network{
		cfg:       cfg,
		hop:       make([]uint8, cfg.NumCores*cfg.NumCores),
		step:      [4]int{East: 1, West: -1, North: -w, South: w},
		dead:      make([][4]bool, cfg.NumCores),
		linkBytes: make([][4]uint64, cfg.NumCores),
	}
	n.rebuildRoutes()
	return n
}

// Send accounts for a message of the given payload size travelling from
// one tile to another and returns the number of hops and the NoC latency
// in cycles. A message to the local tile takes zero hops and zero cycles.
// The walk follows the hop table and allocates nothing: Send sits on the
// simulator's hottest path. A partitioned-off destination is caught by
// one check at the source, because every tile on a minimal path to `to`
// reaches it too.
func (n *Network) Send(from, to, bytes int) (hops, latency int) {
	n.messages++
	row := to * len(n.dead) // the hop-table row toward `to` (len(n.dead) is NumCores)
	if n.hop[row+from] == noHop && from != to {
		n.unreachable(from, to)
	}
	b := uint64(bytes)
	for cur := from; cur != to; hops++ {
		dir := n.hop[row+cur] & 3 // always < 4 on a route; the mask drops bounds checks
		n.linkBytes[cur][dir] += b
		cur += n.step[dir]
	}
	n.byteHops += b * uint64(hops)
	if hops > 0 {
		n.flitHops += uint64(hops) + 1
	}
	if n.tr != nil {
		n.tr.EmitUntimed(trace.EvNoCMsg, from, b*uint64(hops), int32(to))
	}
	return hops, n.cfg.HopLatency(hops)
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
