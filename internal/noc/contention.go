package noc

import (
	"tdnuca/internal/sim"
	"tdnuca/internal/trace"
)

// Queueing contention model (optional, arch.Config.NoCContention): every
// directed link serializes a message's payload at the configured
// bandwidth, and congested links additionally charge an analytic
// queueing delay of occupancy * rho/(1-rho), where rho is the link's
// running utilization (busy cycles over observed time) — the M/M/1 mean
// waiting time, capped to keep pathological estimates bounded. With
// rho = busy/horizon the delay is exactly occ*busy/(horizon-busy), so it
// is charged in integer arithmetic as floor(occ*busy/(horizon-busy)),
// capped at maxQueueFactor*occ (see serve). An analytic model is used
// instead of literal FIFO next-free-time servers because tasks are
// simulated one at a time: messages from parallel tasks reach a link out
// of simulated-time order, which a next-free-time discipline would
// misread as unbounded queueing. The utilization estimate is insensitive
// to arrival order, keeps the simulation deterministic, and reproduces
// the first-order effect the paper's loaded mesh exhibits: hops across
// congested center links cost far more than hops within a quiet
// neighbourhood.

// linkState tracks one directed link's utilization.
type linkState struct {
	busy   sim.Cycles // total serialization cycles served
	latest sim.Cycles // latest observed activity time
}

// maxQueueFactor caps the queueing delay at this multiple of the
// message's own serialization time.
const maxQueueFactor = 8

// EnableContention switches the network to the queueing model with the
// given per-link bandwidth in bytes per cycle. It must be called before
// any traffic is sent: enabling contention mid-run would start the
// utilization estimate from empty link state while the byte counters say
// otherwise, silently under-charging queueing, so that is a panic.
func (n *Network) EnableContention(bandwidthBytes int) {
	if bandwidthBytes <= 0 {
		panic("noc: contention bandwidth must be positive")
	}
	if n.messages > 0 {
		panic("noc: EnableContention after traffic would zero the utilization state; enable it before the first Send")
	}
	n.contention = true
	n.bwBytes = bandwidthBytes
	n.links = make([][4]linkState, n.cfg.NumCores)
	n.ctrlOcc = n.occupancy(n.cfg.CtrlMsgBytes)
	n.dataOcc = n.occupancy(n.cfg.BlockBytes + n.cfg.DataHdrBytes)
}

// occupancy is the cycles a message of the given size holds each link
// it crosses: its serialization time, and never less than the link
// latency.
func (n *Network) occupancy(bytes int) sim.Cycles {
	occ := sim.Cycles((bytes + n.bwBytes - 1) / n.bwBytes)
	if occ < sim.Cycles(n.cfg.LinkLatency) {
		occ = sim.Cycles(n.cfg.LinkLatency)
	}
	return occ
}

// QueueingCycles returns the total queueing delay charged to messages
// (zero when contention is disabled).
func (n *Network) QueueingCycles() sim.Cycles { return n.queued }

// serve charges one message of occupancy occ arriving at cycle now and
// returns its queueing delay: with horizon = max(latest, now) and
// idle = horizon-busy, min(floor(occ*busy/idle), maxQueueFactor*occ).
// The two common outcomes, no delay and the cap, are decided by
// comparing products, so only the band between them divides; a link
// busy for its whole horizon charges the cap. The products stay far
// below 2^64 (busy and horizon are simulated cycles, occ a few cycles),
// and serve is kept small enough for the compiler to inline into
// sendAt's walk.
func (l *linkState) serve(now, occ sim.Cycles) (delay sim.Cycles) {
	if l.busy > 0 {
		delay = occ * maxQueueFactor
		if horizon := max(l.latest, now); l.busy < horizon {
			idle := horizon - l.busy
			if work := occ * l.busy; work < idle {
				delay = 0
			} else if work < delay*idle {
				delay = work / idle
			}
		}
	}
	l.busy += occ
	l.latest = max(l.latest, now+delay+occ)
	return delay
}

// SendAt is Send under the contention model: the message leaves `from`
// at cycle `now` and the returned latency includes router traversal,
// per-link queueing and serialization. With contention disabled it
// behaves exactly like Send.
func (n *Network) SendAt(from, to, bytes int, now sim.Cycles) (int, sim.Cycles) {
	var occ sim.Cycles
	if n.contention {
		occ = n.occupancy(bytes)
	}
	return n.sendAt(from, to, bytes, now, occ)
}

// SendCtrlAt is SendCtrl under the contention model.
func (n *Network) SendCtrlAt(from, to int, now sim.Cycles) (int, sim.Cycles) {
	n.ctrlMsgs++
	return n.sendAt(from, to, n.cfg.CtrlMsgBytes, now, n.ctrlOcc)
}

// SendDataAt is SendData under the contention model.
func (n *Network) SendDataAt(from, to int, now sim.Cycles) (int, sim.Cycles) {
	n.dataMsgs++
	n.dataBytes += uint64(n.cfg.BlockBytes)
	return n.sendAt(from, to, n.cfg.BlockBytes+n.cfg.DataHdrBytes, now, n.dataOcc)
}

// sendAt is the walk shared by the SendAt family for a message that
// holds each link for occ cycles. It follows the hop table, and checks
// for a partition, like Send.
func (n *Network) sendAt(from, to, bytes int, now, occ sim.Cycles) (hops int, latency sim.Cycles) {
	if !n.contention {
		h, lat := n.Send(from, to, bytes)
		return h, sim.Cycles(lat)
	}
	n.messages++
	row := to * len(n.dead)
	if n.hop[row+from] == noHop && from != to {
		n.unreachable(from, to)
	}
	t := now
	for cur := from; cur != to; hops++ {
		// Each hop: the router of cur, queueing on the outgoing link,
		// then serialization onto it.
		dir := n.hop[row+cur] & 3 // always < 4 on a route; the mask drops bounds checks
		n.linkBytes[cur][dir] += uint64(bytes)
		t += sim.Cycles(n.cfg.RouterLatency)
		delay := n.links[cur][dir].serve(t, occ)
		n.queued += delay
		t += delay + occ
		cur += n.step[dir]
	}
	if hops > 0 {
		// Ejection router at the destination: HopLatency and Send charge
		// h+1 routers for an h-hop message, and so must the contention
		// path (the loop charges only the h upstream routers).
		t += sim.Cycles(n.cfg.RouterLatency)
		n.flitHops += uint64(hops) + 1
	}
	n.byteHops += uint64(bytes) * uint64(hops)
	if n.tr != nil {
		n.tr.Emit(trace.EvNoCMsg, now, from, uint64(bytes)*uint64(hops), int32(to))
	}
	return hops, t - now
}
