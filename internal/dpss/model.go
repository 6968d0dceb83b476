package dpss

import (
	"visapult/internal/netsim"
	"visapult/internal/stats"
)

// ThroughputModel is the analytic performance model of a DPSS deployment,
// used by experiment E1 to reproduce the paper's headline numbers: "Current
// performance results are 980 Mbps across a LAN and 570 Mbps across a WAN"
// and "a four-server DPSS ... can deliver throughput of over 150 megabytes
// per second by providing parallel access to 15-20 disks".
//
// Aggregate throughput is the minimum of three aggregated stages:
// disks (servers x disksPerServer x per-disk rate), server NICs
// (servers x NIC rate), and the client's WAN/LAN path.
type ThroughputModel struct {
	Servers        int
	DisksPerServer int
	// DiskMBps is the sustained per-disk transfer rate in megabytes/second
	// (commodity disks of the era sustained roughly 10 MB/s).
	DiskMBps float64
	// ServerNIC is each block server's network interface.
	ServerNIC netsim.Link
	// ClientPath is the network path between the DPSS and the client.
	ClientPath netsim.Path
	// ProtocolEfficiency discounts protocol/TCP overhead (default 0.9).
	ProtocolEfficiency float64
}

// PaperLANModel returns the configuration of the paper's LAN measurement: a
// four-server DPSS with five disks per server, read by a client with a single
// gigabit-ethernet interface. The measured 980 Mbps is the client NIC running
// at near line rate, which is why ProtocolEfficiency is high here — striped
// parallel TCP streams on a LAN lose very little to protocol overhead.
func PaperLANModel() ThroughputModel {
	return ThroughputModel{
		Servers:            4,
		DisksPerServer:     5,
		DiskMBps:           10,
		ServerNIC:          netsim.GigE,
		ClientPath:         netsim.NewPath("LAN", netsim.GigE),
		ProtocolEfficiency: 0.98,
	}
}

// PaperWANModel returns the configuration of the paper's WAN measurement:
// the same DPSS reached across an OC-12 testbed.
func PaperWANModel() ThroughputModel {
	return ThroughputModel{
		Servers:        4,
		DisksPerServer: 5,
		DiskMBps:       10,
		ServerNIC:      netsim.GigE,
		ClientPath:     netsim.NewPath("WAN", netsim.NTON),
	}
}

// DiskAggregateMbps returns the disk-stage ceiling in Mbps.
func (m ThroughputModel) DiskAggregateMbps() float64 {
	return float64(m.Servers*m.DisksPerServer) * m.DiskMBps * 8 * float64(stats.MB) / stats.Mega
}

// ServerNICAggregateMbps returns the server-NIC-stage ceiling in Mbps.
func (m ThroughputModel) ServerNICAggregateMbps() float64 {
	return float64(m.Servers) * m.ServerNIC.Bandwidth / stats.Mega
}

// ClientPathMbps returns the client-path ceiling in Mbps.
func (m ThroughputModel) ClientPathMbps() float64 {
	return m.ClientPath.Bandwidth() / stats.Mega
}

// AggregateMbps returns the deliverable client throughput in Mbps: the
// bottleneck of the three stages, discounted by protocol efficiency.
func (m ThroughputModel) AggregateMbps() float64 {
	eff := m.ProtocolEfficiency
	if eff <= 0 || eff > 1 {
		eff = 0.9
	}
	min := m.DiskAggregateMbps()
	if v := m.ServerNICAggregateMbps(); v < min {
		min = v
	}
	if v := m.ClientPathMbps(); v < min {
		min = v
	}
	return min * eff
}

// DiskAggregateMBps returns the disk-stage capacity in megabytes per second —
// what the deployment could deliver to enough parallel clients, independent
// of any single client's network path. This is the paper's "over 150
// megabytes per second by providing parallel access to 15-20 disks" figure.
func (m ThroughputModel) DiskAggregateMBps() float64 {
	return m.DiskAggregateMbps() * stats.Mega / 8 / float64(stats.MB)
}

// Bottleneck names the limiting stage of the deployment.
func (m ThroughputModel) Bottleneck() string {
	disk := m.DiskAggregateMbps()
	nic := m.ServerNICAggregateMbps()
	path := m.ClientPathMbps()
	switch {
	case disk <= nic && disk <= path:
		return "disks"
	case nic <= disk && nic <= path:
		return "server NICs"
	default:
		return "client path"
	}
}

// WithServers returns a copy of the model scaled to n servers, the scaling
// knob the paper highlights ("the ability to increase performance by
// increasing the number of parallel disk servers").
func (m ThroughputModel) WithServers(n int) ThroughputModel {
	if n < 1 {
		n = 1
	}
	out := m
	out.Servers = n
	return out
}
