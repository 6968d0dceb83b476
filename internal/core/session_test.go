package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"visapult/internal/backend"
	"visapult/internal/datagen"
	"visapult/internal/netlogger"
	"visapult/internal/netsim"
	"visapult/internal/volume"
)

// smallSource returns a synthetic combustion source small enough for real
// (non-simulated) sessions in tests.
func smallSource(steps int) *backend.SyntheticSource {
	return backend.NewSyntheticSource(datagen.NewCombustion(datagen.CombustionConfig{
		NX: 24, NY: 16, NZ: 16, Timesteps: steps, Seed: 42,
	}))
}

func TestRunSessionValidation(t *testing.T) {
	if _, err := RunSession(context.Background(), SessionConfig{PEs: 2}); err == nil {
		t.Fatal("expected error for missing source")
	}
	if _, err := RunSession(context.Background(), SessionConfig{Source: smallSource(1)}); err == nil {
		t.Fatal("expected error for missing PE count")
	}
	if _, err := RunSession(context.Background(), SessionConfig{Source: smallSource(1), PEs: 1, Transport: Transport(99)}); err == nil {
		t.Fatal("expected error for unknown transport")
	}
	if _, err := RunSession(context.Background(), SessionConfig{Source: smallSource(1), PEs: 1, Transport: TransportNone, Viewers: 2}); err == nil {
		t.Fatal("expected error for a viewer-less fan-out")
	}
	// Each bad remote shape fails before anything is dialed.
	tcp := SessionConfig{Source: smallSource(1), PEs: 1, Transport: TransportTCP}
	local, two := tcp, tcp
	local.Transport = TransportLocal
	two.Viewers = 2
	for _, c := range []struct {
		cfg   SessionConfig
		addrs []string
	}{
		{tcp, nil},
		{local, []string{"127.0.0.1:1"}},
		{tcp, []string{"127.0.0.1:1", "127.0.0.1:2"}},
		{two, []string{"127.0.0.1:1"}},
	} {
		if _, err := RunRemote(context.Background(), c.cfg, c.addrs); err == nil {
			t.Errorf("RunRemote(%v, Viewers %d, %v): expected an error", c.cfg.Transport, c.cfg.Viewers, c.addrs)
		}
	}
}

func TestRunSessionLocal(t *testing.T) {
	const pes, steps = 4, 3
	res, err := RunSession(context.Background(), SessionConfig{
		PEs: pes, Source: smallSource(steps), Mode: backend.Overlapped,
		Transport: TransportLocal, Instrument: true, RenderLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Viewer.FramesCompleted != steps {
		t.Fatalf("viewer completed %d frames, want %d", res.Viewer.FramesCompleted, steps)
	}
	if res.Backend.Frames != steps || res.Backend.PEs != pes {
		t.Fatalf("backend stats %+v unexpected", res.Backend)
	}
	if res.FinalImage == nil {
		t.Fatal("no final image")
	}
	// The architecture's core claim: viewer-bound traffic is much smaller
	// than source-bound traffic.
	if res.TrafficRatio() < 4 {
		t.Errorf("traffic reduction %.1fx too small", res.TrafficRatio())
	}
	// Instrumentation captured both back-end and viewer tags.
	a := netlogger.Analyze(res.Events)
	tags := strings.Join(a.Tags(), ",")
	if !strings.Contains(tags, "BE_LOAD_START") || !strings.Contains(tags, "V_HEAVYPAYLOAD_END") {
		t.Errorf("event stream missing expected tags: %s", tags)
	}
}

func TestRunSessionTCP(t *testing.T) {
	const pes, steps = 2, 2
	res, err := RunSession(context.Background(), SessionConfig{
		PEs: pes, Source: smallSource(steps), Transport: TransportTCP, Instrument: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Viewer.FramesCompleted != steps {
		t.Fatalf("viewer completed %d frames over TCP, want %d", res.Viewer.FramesCompleted, steps)
	}
	if res.Viewer.BytesReceived == 0 {
		t.Fatal("no bytes crossed the TCP transport")
	}
}

func TestRunSessionStriped(t *testing.T) {
	const pes, steps = 2, 2
	res, err := RunSession(context.Background(), SessionConfig{
		PEs: pes, Source: smallSource(steps), Transport: TransportStriped, StripeLanes: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Viewer.FramesCompleted != steps {
		t.Fatalf("viewer completed %d frames over striped sockets, want %d", res.Viewer.FramesCompleted, steps)
	}
}

func TestRunSessionShapedViewerPath(t *testing.T) {
	// Shaping the back-end-to-viewer path must not lose any payloads.
	shaper := netsim.NewShaper(20e6/8, 64<<10) // 20 Mbps
	res, err := RunSession(context.Background(), SessionConfig{
		PEs: 1, Source: smallSource(2), Transport: TransportTCP, ViewerShaper: shaper,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Viewer.FramesCompleted != 2 {
		t.Fatalf("viewer completed %d frames over the shaped path, want 2", res.Viewer.FramesCompleted)
	}
}

// slowSource delays every region load, the way a real data source paces
// the back end.
type slowSource struct {
	backend.DataSource
	delay time.Duration
}

func (s slowSource) LoadRegion(ctx context.Context, t int, r volume.Region) (*volume.Volume, int64, error) {
	time.Sleep(s.delay)
	return s.DataSource.LoadRegion(ctx, t, r)
}

func TestRunSessionFollowViewSwitchesAxis(t *testing.T) {
	// With the camera rotated 90 degrees about Y, the viewer should steer the
	// back end to an X-axis decomposition after the first completed frame. A
	// local viewer hands the hint over in process; a TCP or striped viewer
	// sends it back over the link's connections (section 3.3), so it steers
	// a later frame only if one is still to come when it arrives: the paced
	// loads leave it three frames of at least 10 ms each.
	for _, tr := range []Transport{TransportLocal, TransportTCP, TransportStriped} {
		t.Run(tr.String(), func(t *testing.T) {
			res, err := RunSession(context.Background(), SessionConfig{
				PEs: 2, Source: slowSource{smallSource(4), 10 * time.Millisecond}, Transport: tr,
				FollowView: true, ViewAngle: math.Pi / 2, Axis: volume.AxisZ,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Backend.AxisFlips == 0 {
				t.Error("expected the viewer's axis hint to flip the back-end decomposition")
			}
		})
	}
}

func TestTransportString(t *testing.T) {
	if TransportLocal.String() != "local" || TransportTCP.String() != "tcp" || TransportStriped.String() != "striped-tcp" {
		t.Fatal("unexpected transport names")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "T", Title: "demo", Columns: []string{"a", "bb"}}
	tbl.AddRow("1")
	tbl.AddRow("22", "333")
	tbl.AddNote("n=%d", 2)
	out := tbl.String()
	for _, want := range []string{"== T: demo ==", "a", "bb", "22", "333", "note: n=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestPipelineTrafficGrowsWithResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("renders several volumes")
	}
	r, err := RunE10()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 3 {
		t.Fatal("expected several resolutions")
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Ratio <= r.Rows[i-1].Ratio {
			t.Errorf("traffic reduction did not grow with resolution: %.1f then %.1f",
				r.Rows[i-1].Ratio, r.Rows[i].Ratio)
		}
	}
	// O(n^3)/O(n^2) = O(n): doubling n should roughly double the ratio.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	scale := float64(last.Dims[0]) / float64(first.Dims[0])
	growth := last.Ratio / first.Ratio
	if growth < 0.5*scale || growth > 2*scale {
		t.Errorf("ratio growth %.2f not roughly linear in resolution scale %.2f", growth, scale)
	}
}

func TestDPSSThroughputModelMatchesPaper(t *testing.T) {
	r := RunE1()
	var fourLAN, fourWAN float64
	for _, row := range r.Rows {
		if row.Servers == 4 {
			fourLAN, fourWAN = row.LANMbps, row.WANMbps
		}
	}
	if fourLAN < 880 || fourLAN > 1000 {
		t.Errorf("4-server LAN throughput %.0f Mbps, paper reports 980 Mbps", fourLAN)
	}
	if fourWAN < 500 || fourWAN > 640 {
		t.Errorf("4-server WAN throughput %.0f Mbps, paper reports 570 Mbps", fourWAN)
	}
	if r.FourServerMBps < 150 {
		t.Errorf("4-server aggregate %.0f MB/s, paper reports over 150 MB/s", r.FourServerMBps)
	}
	// Throughput scales with server count until another stage saturates.
	if r.Rows[0].LANMbps >= r.Rows[len(r.Rows)-1].LANMbps {
		t.Error("adding servers should not reduce LAN throughput")
	}
}
