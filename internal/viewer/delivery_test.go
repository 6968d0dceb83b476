package viewer

import (
	"bytes"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"visapult/internal/render"
	"visapult/internal/volume"
	"visapult/internal/wire"
)

// texturePayloads builds a matched pair around a caller-supplied texture.
func texturePayloads(frame, pe, pes, w, h int, tex []byte) (*wire.LightPayload, *wire.HeavyPayload) {
	hp := &wire.HeavyPayload{Frame: frame, PE: pe, TexWidth: w, TexHeight: h, Texture: tex}
	lp := &wire.LightPayload{
		Frame: frame, PE: pe, SlabIndex: pe, SlabCount: pes,
		Axis: volume.AxisZ, TexWidth: w, TexHeight: h, BytesPerPixel: 4,
		CenterX: float64(w) / 2, CenterY: float64(h) / 2, CenterZ: float64(pe) + 0.5,
		Width: float64(w), Height: float64(h), Depth: 1,
		HeavyBytes: hp.WireSize(),
	}
	return lp, hp
}

// stripedConns returns the two framed ends of a 2-lane striped loopback
// connection.
func stripedConns(t *testing.T) (sender, receiver *wire.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := wire.NewStripeListener(l, 0)
	defer sl.Close()
	accepted := make(chan *wire.Stripe, 1)
	go func() {
		s, err := sl.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- s
	}()
	s, err := wire.DialStriped(l.Addr().String(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := <-accepted
	if r == nil {
		t.FailNow()
	}
	sender, receiver = wire.NewConn(s), wire.NewConn(r)
	t.Cleanup(func() { sender.Close(); receiver.Close() })
	return sender, receiver
}

// One 1 MiB texture travels SendHeavy -> striped sockets -> ReadMessage ->
// DecodeHeavy -> Deliver in exactly one new buffer: the message buffer the
// viewer's scene then holds as the texture. Everything else on the path —
// framing, striping, decoding, the quad — must fit in the remaining 10 %.
func TestTextureDeliveryAllocatesOneBuffer(t *testing.T) {
	const w, h, textures = 512, 512, 16
	tex := make([]byte, w*h*4)
	rand.New(rand.NewSource(1)).Read(tex)
	sender, receiver := stripedConns(t)
	vw := newTestViewer(t, 1)

	deliver := func(frame int) {
		lp, hp := texturePayloads(frame, 0, 1, w, h, tex)
		sent := make(chan error, 1)
		go func() {
			if err := sender.SendLight(lp); err != nil {
				sent <- err
				return
			}
			sent <- sender.SendHeavy(hp)
		}()
		m, err := receiver.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		gotLight, err := wire.DecodeLight(m)
		if err != nil {
			t.Fatal(err)
		}
		if m, err = receiver.ReadMessage(); err != nil {
			t.Fatal(err)
		}
		gotHeavy, err := wire.DecodeHeavy(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := vw.Deliver(gotLight, gotHeavy); err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		// The scene's texture is the message buffer itself, not a copy.
		q := vw.Scene().TextureQuads()[0]
		if &q.Texture[0] != &gotHeavy.Texture[0] || &gotHeavy.Texture[0] != &m.Payload[24] {
			t.Fatal("texture was copied between ReadMessage and the scene graph")
		}
	}
	deliver(0) // warm-up: lane buffers, poller state
	if !bytes.Equal(vw.Scene().TextureQuads()[0].Texture, tex) {
		t.Fatal("texture corrupted in transit")
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= textures; i++ {
		deliver(i)
	}
	runtime.ReadMemStats(&after)
	perTexture := float64(after.TotalAlloc-before.TotalAlloc) / textures
	if limit := 1.1 * float64(len(tex)); perTexture > limit {
		t.Fatalf("%.0f bytes allocated per %d-byte texture, want <= %.0f", perTexture, len(tex), limit)
	}
}

// The render loop composites continuously while eight goroutines replace
// quads: run under -race this proves textures are shared read-only and the
// loop's recycled frames never reach a caller.
func TestRenderLoopRacesDeliveries(t *testing.T) {
	const pes, frames, w, h = 8, 40, 32, 32
	vw := newTestViewer(t, pes)
	vw.StartRenderLoop(time.Millisecond)
	defer vw.Stop()

	var held []*render.Image
	var sums []float64
	var wg sync.WaitGroup
	for pe := 0; pe < pes; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pe)))
			for f := 0; f < frames; f++ {
				tex := make([]byte, w*h*4)
				rng.Read(tex)
				lp, hp := texturePayloads(f, pe, pes, w, h, tex)
				if err := vw.Deliver(lp, hp); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(pe)
	}
	// Meanwhile take images out of the viewer both ways and remember what
	// they looked like.
	for i := 0; i < 20; i++ {
		img := vw.RenderOnce()
		if i%2 == 1 {
			if img = vw.LastImage(); img == nil {
				t.Fatal("no last image after RenderOnce")
			}
		}
		held = append(held, img)
		sums = append(sums, checksum(img))
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	time.Sleep(20 * time.Millisecond) // a few more loop frames over the final scene
	for i, img := range held {
		if got := checksum(img); got != sums[i] {
			t.Fatalf("image %d changed after it was handed out (%v -> %v)", i, sums[i], got)
		}
	}
	if st := vw.Stats(); st.FramesCompleted != frames {
		t.Fatalf("frames completed = %d, want %d", st.FramesCompleted, frames)
	}
}

func checksum(img *render.Image) float64 {
	var sum float64
	for i, p := range img.Pix {
		sum += float64(p) * float64(i%97+1)
	}
	return sum
}
