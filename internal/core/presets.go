package core

import (
	"time"

	"visapult/internal/backend"
	"visapult/internal/netsim"
	"visapult/internal/platform"
)

// The presets below reproduce the paper's field-test configurations. Sizes
// follow section 4.2: a 640x256x256 single-precision grid is 160 MB per
// timestep. Timestep counts default to ten (the paper's E4500 experiment
// length); callers can raise them to the full 265-step campaign.

// paperFrameBytes is the per-timestep size of the combustion dataset.
const paperFrameBytes = 640 * 256 * 256 * 4

// paperDims are the combustion grid dimensions.
var paperDims = [3]int{640, 256, 256}

// defaultTimesteps is the campaign length used by the presets; the paper's
// overlap study (Figures 12-13) used ten timesteps.
const defaultTimesteps = 10

// FirstLightCampaign reproduces the 12 April 2000 Combustion Corridor "first
// light" run of Figure 10: data on the LBL DPSS, the serial Visapult back end
// on four CPlant nodes at SNL-CA reached over NTON (OC-12), viewer at SNL-CA.
// The post-SC99 streamlined implementation achieved about 433 Mbps, 70% of
// the OC-12 limit; Efficiency captures the remaining protocol overhead.
func FirstLightCampaign() Campaign {
	return Campaign{
		Name:       "first-light (LBL DPSS -> CPlant over NTON, serial, 4 PEs)",
		Platform:   platform.CPlant.WithNodes(4),
		PEs:        4,
		Mode:       backend.Serial,
		Timesteps:  defaultTimesteps,
		FrameBytes: paperFrameBytes,
		VolumeDims: paperDims,
		DataPath:   netsim.NewPath("LBL->NTON->SNL-CA", netsim.NTON),
		ViewerPath: netsim.NewPath("SNL-CA desktop", netsim.GigE),
		Efficiency: 0.70,
		Seed:       412,
	}
}

// SC99CPlantCampaign reproduces the SC99 demonstration path from the LBL DPSS
// to CPlant over NTON, where the pre-streamlining implementation sustained
// about 250 Mbps of the OC-48/OC-12 capacity.
func SC99CPlantCampaign() Campaign {
	c := FirstLightCampaign()
	c.Name = "sc99 (LBL DPSS -> CPlant over NTON, early implementation)"
	c.Efficiency = 250.0 / 622.0
	c.Seed = 1999
	return c
}

// SC99ShowFloorCampaign reproduces the SC99 path from the LBL DPSS to the
// 8-node Alpha Linux cluster in the LBL booth: NTON to the Oakland POP, then
// the shared SciNet show-floor network, sustaining about 150 Mbps.
func SC99ShowFloorCampaign() Campaign {
	return Campaign{
		Name:       "sc99 (LBL DPSS -> show-floor cluster over NTON+SciNet)",
		Platform:   platform.CPlant.WithNodes(8),
		PEs:        8,
		Mode:       backend.Serial,
		Timesteps:  defaultTimesteps,
		FrameBytes: paperFrameBytes,
		VolumeDims: paperDims,
		DataPath:   netsim.NewPath("LBL->NTON->SciNet", netsim.NTON, netsim.SciNet).WithShare(0.5),
		ViewerPath: netsim.NewPath("booth LAN", netsim.GigE),
		Efficiency: 0.86, // 150 Mbps of the ~175 Mbps SciNet share
		Seed:       1999,
	}
}

// E4500LANCampaign reproduces the serial-versus-overlapped study of Figures
// 12-13: an eight-processor Sun E4500 reading a large dataset from the LBL
// DPSS over gigabit ethernet, ten timesteps, L ~= 15 s and R ~= 12 s per
// timestep. The 336 MHz UltraSPARC-II hosts of that era could not drive a
// gigabit NIC anywhere near line rate; Efficiency models the host-limited
// ~85 Mbps per-frame delivery that makes the measured 15-second loads.
func E4500LANCampaign(mode backend.Mode) Campaign {
	return Campaign{
		Name:       "e4500-lan (LBL DPSS -> Sun E4500 over gigabit LAN, " + mode.String() + ")",
		Platform:   platform.E4500,
		PEs:        8,
		Mode:       mode,
		Timesteps:  10,
		FrameBytes: paperFrameBytes,
		VolumeDims: paperDims,
		DataPath:   netsim.NewPath("LBL LAN", netsim.GigE),
		ViewerPath: netsim.NewPath("LBL LAN", netsim.GigE),
		Efficiency: 0.085,
		Seed:       4500,
	}
}

// CPlantNTONCampaign reproduces the Figures 14-15 runs: the back end on
// `nodes` CPlant nodes loading from the LBL DPSS over NTON and sending
// textures back to a viewer at LBL over ESnet.
func CPlantNTONCampaign(nodes int, mode backend.Mode) Campaign {
	return Campaign{
		Name:       "cplant-nton (" + mode.String() + ")",
		Platform:   platform.CPlant.WithNodes(nodes),
		PEs:        nodes,
		Mode:       mode,
		Timesteps:  defaultTimesteps,
		FrameBytes: paperFrameBytes,
		VolumeDims: paperDims,
		DataPath:   netsim.NewPath("LBL->NTON->SNL-CA", netsim.NTON),
		ViewerPath: netsim.NewPath("SNL-CA->ESnet->LBL", netsim.ESnet),
		Efficiency: 0.70,
		Seed:       1415,
	}
}

// ANLESnetCampaign reproduces the Figures 16-17 runs: the back end on eight
// processors of the ANL SGI Onyx2, loading from the LBL DPSS over ESnet
// (about ten seconds and 128 Mbps per 160 MB timestep, slightly above what
// iperf measures thanks to parallel loading) and returning textures to a
// viewer at LBL over the same network. TCP slow start is visible on the
// first timestep.
func ANLESnetCampaign(mode backend.Mode) Campaign {
	esnet := netsim.ESnet
	esnet.Bandwidth = 130e6 // raw capacity; iperf's single stream sees ~100 Mbps
	return Campaign{
		Name:       "anl-esnet (" + mode.String() + ")",
		Platform:   platform.Onyx2.WithNodes(8),
		PEs:        8,
		Mode:       mode,
		Timesteps:  defaultTimesteps,
		FrameBytes: paperFrameBytes,
		VolumeDims: paperDims,
		DataPath:   netsim.NewPath("LBL->ESnet->ANL", esnet),
		ViewerPath: netsim.NewPath("ANL->ESnet->LBL", esnet),
		Efficiency: 0.985,
		SlowStart:  true,
		Seed:       1600,
	}
}

// TerascaleTargetRate is the paper's stated goal of five new timesteps per
// second for the 265-step combustion dataset.
const TerascaleTargetRate = 5.0

// PaperDatasetTransferTimes returns the section 5 projection inputs: the
// 41.4 GB, 265-timestep dataset moved over NTON and over ESnet.
func PaperDatasetTransferTimes() (nton, esnet time.Duration) {
	ntonPath := netsim.NewPath("NTON", netsim.NTON)
	esnetPath := netsim.NewPath("ESnet", netsim.ESnet)
	total := int64(265) * paperFrameBytes
	return ntonPath.TransferTime(total), esnetPath.TransferTime(total)
}
