package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"visapult/internal/backend/framecache"
	"visapult/internal/dpss"
	"visapult/internal/netsim"
	"visapult/internal/render"
	"visapult/internal/viewer"
	"visapult/internal/volume"
	"visapult/internal/wire"
	"visapult/pkg/visapult"
)

// The probes time isolated calls into one layer each, from outside, with the
// workload's own data. They run only in traced runs, after the timed
// repetitions, and every call is also recorded as a span.

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// The band netsim.shaper_error stays in at the commit that defined the
// benchmark: a 64 KiB write per 64 KiB burst oversleeps a little every time,
// so the shaper delivers ~0.93 of its configured rate on the reference box.
const (
	shaperErrorLow  = 0.88
	shaperErrorHigh = 1.03
)

// probeShaper calibrates the instrument wan-dpss depends on: a raw shaped
// copy at the per-connection rate must run at that rate. If it does not,
// wan-dpss has changed meaning.
func probeShaper(rc *recorder, m map[string]summary) {
	const total = 8 << 20
	w := netsim.NewShapedWriter(io.Discard, netsim.NewShaper(wanConnRate, wanConnBurst))
	chunk := make([]byte, wanConnBurst)
	d := rc.probe("netsim", "ShapedWriter.Write", func() {
		for n := 0; n < total; n += len(chunk) {
			_, _ = w.Write(chunk) // io.Discard cannot fail
		}
	})
	// The bucket starts full, so one burst is free.
	ratio := float64(total-wanConnBurst) / d.Seconds() / wanConnRate
	m["netsim.shaper_error"] = single("ratio", ratio)
	if ratio < shaperErrorLow || ratio > shaperErrorHigh {
		fmt.Fprintf(os.Stderr, "bench: WARNING: netsim shaper delivers %.3f of its configured rate, outside [%.2f, %.2f]: wan-dpss no longer means what its reference numbers assume\n",
			ratio, shaperErrorLow, shaperErrorHigh)
	}
}

// probeDPSS reads every PE slab of every timestep through the workload's own
// source, one region at a time.
func probeDPSS(ctx context.Context, rc *recorder, m map[string]summary, client *dpss.Client, src *visapult.DPSSSource, in *instance) error {
	before := client.StripeStats()
	var regionMs []float64
	var bytesRead int64
	var total time.Duration
	for t := range in.timesteps {
		for _, r := range in.slabs {
			var n int64
			var err error
			d := rc.probe("dpss", "DPSSSource.LoadRegion", func() { _, n, err = src.LoadRegion(ctx, t, r) })
			if err != nil {
				return fmt.Errorf("dpss probe: %w", err)
			}
			regionMs = append(regionMs, ms(d))
			bytesRead += n
			total += d
		}
	}
	m["dpss.region_ms"] = summarize("ms", regionMs)
	m["dpss.read_MBps"] = single("MB/s", float64(bytesRead)/1e6/total.Seconds())

	type stripe struct {
		server string
		index  int
	}
	prev := make(map[stripe]dpss.StripeStat, len(before))
	for _, s := range before {
		prev[stripe{s.Server, s.Stripe}] = s
	}
	var lo, hi, failures int64
	for i, s := range client.StripeStats() {
		p := prev[stripe{s.Server, s.Stripe}]
		b := s.Bytes - p.Bytes
		failures += s.Failures - p.Failures
		if i == 0 || b < lo {
			lo = b
		}
		hi = max(hi, b)
	}
	if hi > 0 {
		m["dpss.stripe_balance"] = single("ratio", float64(lo)/float64(hi))
	}
	m["dpss.failures"] = single("count", float64(failures))
	return nil
}

// probeFabric reads every PE slab of every timestep through a FabricSource.
func probeFabric(ctx context.Context, rc *recorder, m map[string]summary, rig *fabricRig, in *instance) error {
	d := rig.g.spec
	src, err := visapult.NewFabricSource(rig.fb, "d32", d.nx, d.ny, d.nz, d.steps)
	if err != nil {
		return err
	}
	defer src.Close()
	var bytesRead int64
	var total time.Duration
	for t := range in.timesteps {
		for _, r := range in.slabs {
			var n int64
			var err error
			total += rc.probe("dpss/fabric", "FabricSource.LoadRegion", func() { _, n, err = src.LoadRegion(ctx, t, r) })
			if err != nil {
				return fmt.Errorf("fabric probe: %w", err)
			}
			bytesRead += n
		}
	}
	m["fabric.read_MBps"] = single("MB/s", float64(bytesRead)/1e6/total.Seconds())
	failovers := 0
	for _, h := range rig.fb.Health() {
		failovers += h.Failures
	}
	m["fabric.failovers"] = single("count", float64(failovers))
	return nil
}

// probeRender builds the LUT once, then the macrocells of, and the image of,
// every PE slab of every generated timestep, the way the back end does.
func probeRender(ctx context.Context, rc *recorder, m map[string]summary, g generated, in *instance) error {
	const passes = 3 // 8 timesteps x PEs x 3 supports a p75 tail on the reference box
	var lut *render.LUT
	rc.probe("render", "BuildLUT", func() { lut = render.BuildLUT(denseTF()) })
	pool := render.NewPool(0)
	defer pool.Close()
	var cellMs, slabMs []float64
	var st render.RenderStats
	var segments int
	var renderTime time.Duration
	for range passes {
		for _, vol := range g.vols {
			for _, r := range in.slabs {
				sub, err := r.Extract(vol)
				if err != nil {
					return err
				}
				var cells *render.Macrocells
				cellMs = append(cellMs, ms(rc.probe("render", "BuildMacrocells", func() { cells = render.BuildMacrocells(sub) })))
				full := volume.Region{X1: sub.NX, Y1: sub.NY, Z1: sub.NZ}
				img := render.GetImage(render.PlaneDims(full, volume.AxisZ))
				var one render.RenderStats
				d := rc.probe("render", "Pool.RenderSlab", func() { one, err = pool.RenderSlab(ctx, sub, full, lut, cells, volume.AxisZ, img) })
				render.PutImage(img)
				if err != nil {
					return err
				}
				slabMs = append(slabMs, ms(d))
				renderTime += d
				st.Rays += one.Rays
				st.Samples += one.Samples
				st.EarlyTerminated += one.EarlyTerminated
				st.TilesSkipped += one.TilesSkipped
				segments += one.Rays * ((sub.NZ + render.MacroBlock - 1) / render.MacroBlock)
			}
		}
	}
	m["render.macrocell_ms"] = summarize("ms", cellMs)
	m["render.slab_ms"] = summarize("ms", slabMs)
	m["render.Mvox_s"] = single("Mvox/s", float64(st.Samples)/1e6/renderTime.Seconds())
	m["render.skipped_share"] = single("ratio", float64(st.TilesSkipped)/float64(segments))
	m["render.early_term_share"] = single("ratio", float64(st.EarlyTerminated)/float64(st.Rays))
	return nil
}

// slabPayloads renders one timestep's PE slabs with the fire TF and wraps
// them in the payload pair the back end would send. It returns the render
// time of each slab too.
func slabPayloads(ctx context.Context, rc *recorder, vol *volume.Volume, slabs []volume.Region, frame int) ([]*wire.LightPayload, []*wire.HeavyPayload, []float64, error) {
	lut := render.BuildLUT(visapult.CombustionTF())
	pool := render.NewPool(0)
	defer pool.Close()
	var lights []*wire.LightPayload
	var heavies []*wire.HeavyPayload
	var renderMs []float64
	for pe, r := range slabs {
		sub, err := r.Extract(vol)
		if err != nil {
			return nil, nil, nil, err
		}
		full := volume.Region{X1: sub.NX, Y1: sub.NY, Z1: sub.NZ}
		cells := render.BuildMacrocells(sub)
		img := render.GetImage(render.PlaneDims(full, volume.AxisZ))
		d := rc.probe("render", "Pool.RenderSlab", func() { _, err = pool.RenderSlab(ctx, sub, full, lut, cells, volume.AxisZ, img) })
		if err != nil {
			return nil, nil, nil, err
		}
		renderMs = append(renderMs, ms(d))
		light, heavy := texturePayloads(frame, pe, len(slabs), img.W, img.H, img.ToRGBA8())
		render.PutImage(img)
		light.CenterX, light.CenterY, light.CenterZ = r.Center()
		rx, ry, rz := r.Dims()
		light.Width, light.Height, light.Depth = float64(rx), float64(ry), float64(rz)
		lights, heavies = append(lights, light), append(heavies, heavy)
	}
	return lights, heavies, renderMs, nil
}

// texturePayloads wraps one RGBA texture in a light/heavy payload pair.
func texturePayloads(frame, pe, pes, w, h int, tex []byte) (*wire.LightPayload, *wire.HeavyPayload) {
	heavy := &wire.HeavyPayload{Frame: frame, PE: pe, TexWidth: w, TexHeight: h, Texture: tex}
	light := &wire.LightPayload{
		Frame: frame, PE: pe, SlabIndex: pe, SlabCount: pes, Axis: volume.AxisZ,
		TexWidth: w, TexHeight: h, BytesPerPixel: 4,
		Width: float64(w), Height: float64(h), Depth: 1, HeavyBytes: heavy.WireSize(),
	}
	return light, heavy
}

func patternTexture(w, h int) []byte {
	tex := make([]byte, w*h*4)
	for i := range tex {
		tex[i] = byte(i * 7)
	}
	return tex
}

// probeWire times heavy-payload marshalling of one slab texture and a
// two-lane striped stream over loopback.
func probeWire(rc *recorder, m map[string]summary, texW, texH int) error {
	const n = 100
	_, heavy := texturePayloads(0, 0, 1, texW, texH, patternTexture(texW, texH))
	var marshalUs, unmarshalUs []float64
	var encoded []byte
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		marshalUs = append(marshalUs, us(rc.probe("wire", "HeavyPayload.MarshalBinary", func() { encoded, err = heavy.MarshalBinary() })))
		if err != nil {
			return err
		}
		var back wire.HeavyPayload
		unmarshalUs = append(unmarshalUs, us(rc.probe("wire", "HeavyPayload.UnmarshalBinary", func() { err = back.UnmarshalBinary(encoded) })))
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m["wire.marshal_us"] = summarize("us", marshalUs)
	m["wire.unmarshal_us"] = summarize("us", unmarshalUs)
	// Includes the recorder's own span appends (amortized, well under one
	// allocation per call).
	m["wire.allocs_per_payload"] = single("count", float64(after.Mallocs-before.Mallocs)/n)

	mbps, err := stripeThroughput(rc, fanoutLanes, 64, len(heavy.Texture))
	if err != nil {
		return err
	}
	m["wire.stripe_MBps"] = single("MB/s", mbps)
	return nil
}

// stripeThroughput pushes count messages of size bytes through one striped
// connection on loopback and returns MB/s.
func stripeThroughput(rc *recorder, lanes, count, size int) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	sl := wire.NewStripeListener(l, 0)
	defer sl.Close()
	received := make(chan error, 1)
	go func() { // ends when the sender closes its stripe, or on the first error
		s, err := sl.Accept()
		if err != nil {
			received <- err
			return
		}
		defer s.Close()
		_, err = io.CopyN(io.Discard, s, int64(count)*int64(size))
		received <- err
	}()
	s, err := wire.DialStriped(l.Addr().String(), lanes, 0)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	buf := patternTexture(size/4, 1)
	var werr error
	d := rc.probe("wire", "Stripe.Write", func() {
		for range count {
			if _, werr = s.Write(buf); werr != nil {
				return
			}
		}
		werr = <-received
	})
	if werr != nil {
		return 0, fmt.Errorf("stripe probe: %w", werr)
	}
	return float64(count) * float64(size) / 1e6 / d.Seconds(), nil
}

// probeDispatchSlab times one slab texture through the dispatch wire: header
// encode, framed write, framed read, alias decode.
func probeDispatchSlab(rc *recorder, m map[string]summary, texW, texH int) error {
	const n = 200
	light, heavy := texturePayloads(1, 0, 2, texW, texH, patternTexture(texW, texH))
	var buf bytes.Buffer
	c := wire.NewDispatchConn(&buf, &buf)
	var samples []float64
	for range n {
		var err error
		d := rc.probe("wire", "DispatchSlab", func() {
			eb := wire.GetDispatchBuf()
			defer wire.PutDispatchBuf(eb)
			if *eb, err = wire.AppendDispatchSlabHeader(*eb, light, heavy); err != nil {
				return
			}
			if err = c.WriteFrame(wire.DSlab, *eb, heavy.Texture); err != nil {
				return
			}
			var payload []byte
			if _, payload, err = c.ReadFrame(); err != nil {
				return
			}
			var l wire.LightPayload
			var h wire.HeavyPayload
			err = wire.DecodeDispatchSlabInto(payload, &l, &h)
		})
		if err != nil {
			return fmt.Errorf("dispatch slab probe: %w", err)
		}
		samples = append(samples, us(d))
	}
	m["wire.dispatch_slab_us"] = summarize("us", samples)
	return nil
}

// probeViewer delivers the eight slab textures of every generated timestep
// into a fresh viewer, then composites the assembled scene.
func probeViewer(ctx context.Context, rc *recorder, m map[string]summary, g generated, in *instance) error {
	vw, err := viewer.New(viewer.Config{PEs: in.pes})
	if err != nil {
		return err
	}
	var deliverUs, slabMs []float64
	for t, vol := range g.vols {
		lights, heavies, renderMs, err := slabPayloads(ctx, rc, vol, in.slabs, t)
		if err != nil {
			return err
		}
		slabMs = append(slabMs, renderMs...)
		for i := range lights {
			d := rc.probe("viewer", "Viewer.Deliver", func() { err = vw.Deliver(lights[i], heavies[i]) })
			if err != nil {
				return err
			}
			deliverUs = append(deliverUs, us(d))
		}
	}
	// What one slab render costs here with the CPU to itself: in the run the
	// render spans also hold the time PEs wait for a CPU the fan-out's
	// senders and the viewers are using.
	m["render.slab_ms"] = summarize("ms", slabMs)
	m["viewer.deliver_us"] = summarize("us", deliverUs)
	var compositeMs []float64
	for range 20 {
		compositeMs = append(compositeMs, ms(rc.probe("viewer", "Viewer.RenderOnce", func() { vw.RenderOnce() })))
	}
	m["viewer.composite_ms"] = summarize("ms", compositeMs)
	return nil
}

// probeFrameCache times slab inserts and lookups on a private cache.
func probeFrameCache(rc *recorder, m map[string]summary, texW, texH int, in *instance) error {
	const frames = 64
	cache := framecache.New(frameCacheBytes)
	tex := patternTexture(texW, texH)
	key := func(t int) framecache.Key {
		return framecache.Key{Dataset: framecache.DatasetKey("probe", int(volume.AxisX), in.pes), Timestep: t, TF: "fire"}
	}
	var putUs, getUs []float64
	for t := range frames {
		for pe := range in.pes {
			light, heavy := texturePayloads(t, pe, in.pes, texW, texH, tex)
			putUs = append(putUs, us(rc.probe("framecache", "Cache.PutSlab", func() {
				cache.PutSlab(key(t), pe, in.pes, framecache.Slab{Light: light, Heavy: heavy})
			})))
		}
	}
	for t := range frames {
		for pe := range in.pes {
			var ok bool
			getUs = append(getUs, us(rc.probe("framecache", "Cache.Slab", func() { _, ok = cache.Slab(key(t), pe) })))
			if !ok {
				return fmt.Errorf("framecache probe: frame %d PE %d not resident", t, pe)
			}
		}
	}
	m["framecache.put_us"] = summarize("us", putUs)
	m["framecache.get_us"] = summarize("us", getUs)
	return nil
}
