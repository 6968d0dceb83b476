package core

import (
	"bytes"
	"context"
	"hash/crc32"
	"sort"
	"sync"
	"testing"

	"visapult/internal/backend"
	"visapult/internal/render"
	"visapult/internal/wire"
)

// A fan-out publishes each slab once: the same HeavyPayload is what every
// viewer's sender writes from, what an in-process viewer keeps as its scene
// texture, and what OnSlab sees. After three viewers have received, held and
// composited it — over every transport — its bytes must be exactly what the
// back end rendered, and the picture must be the one the float reference
// (render.FromRGBA8 + Image.Over, what the viewer did before it composited
// from bytes) produces from those textures. Run under -race this also proves
// nobody writes to a published texture.
func TestFanoutSharesPublishedTexturesUnchanged(t *testing.T) {
	const pes, steps, viewers = 4, 3, 3
	var reference []byte
	for _, tr := range []Transport{TransportLocal, TransportTCP, TransportStriped} {
		t.Run(tr.String(), func(t *testing.T) {
			type published struct {
				light *wire.LightPayload
				heavy *wire.HeavyPayload
				crc   uint32
			}
			var mu sync.Mutex
			var slabs []published
			res, err := RunSession(context.Background(), SessionConfig{
				PEs: pes, Source: smallSource(steps), Mode: backend.Overlapped,
				Transport: tr, Viewers: viewers, RenderLoop: true, ViewerQueue: pes * steps,
				OnSlab: func(light *wire.LightPayload, heavy *wire.HeavyPayload) {
					mu.Lock()
					slabs = append(slabs, published{light, heavy, crc32.ChecksumIEEE(heavy.Texture)})
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Viewers) != viewers {
				t.Fatalf("%d viewer results, want %d", len(res.Viewers), viewers)
			}
			for _, v := range res.Viewers {
				if v.Err != "" || v.Stats.FramesCompleted != steps || v.Delivery.FramesDropped != 0 {
					t.Fatalf("viewer %s: err %q, %d frames, %d dropped", v.ID, v.Err, v.Stats.FramesCompleted, v.Delivery.FramesDropped)
				}
			}
			if len(slabs) != pes*steps {
				t.Fatalf("%d slabs published, want %d", len(slabs), pes*steps)
			}
			for _, s := range slabs {
				if got := crc32.ChecksumIEEE(s.heavy.Texture); got != s.crc {
					t.Fatalf("frame %d PE %d: published texture changed after delivery", s.heavy.Frame, s.heavy.PE)
				}
			}

			// The reference picture from the last frame's textures, far to near.
			var last []published
			for _, s := range slabs {
				if s.heavy.Frame == steps-1 {
					last = append(last, s)
				}
			}
			sort.Slice(last, func(i, j int) bool { return last[i].light.CenterX > last[j].light.CenterX })
			if res.FinalImage == nil {
				t.Fatal("no final image")
			}
			want := render.NewImage(res.FinalImage.W, res.FinalImage.H)
			for _, s := range last {
				img, err := render.FromRGBA8(s.heavy.TexWidth, s.heavy.TexHeight, s.heavy.Texture)
				if err != nil {
					t.Fatal(err)
				}
				layer := render.NewImage(want.W, want.H)
				for y := 0; y < want.H; y++ {
					for x := 0; x < want.W; x++ {
						r, g, b, a := img.At(x*img.W/want.W, y*img.H/want.H)
						layer.Set(x, y, r, g, b, a)
					}
				}
				if err := want.Over(layer); err != nil {
					t.Fatal(err)
				}
			}
			got := res.FinalImage.ToRGBA8()
			if !bytes.Equal(got, want.ToRGBA8()) {
				t.Fatal("final image differs from the float reference composite")
			}
			if reference == nil {
				reference = got
			} else if !bytes.Equal(got, reference) {
				t.Fatalf("final image over %v differs from the one over %v", tr, TransportLocal)
			}
		})
	}
}
