package scenegraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"visapult/internal/render"
)

// referenceComposite is the compositor this package used before quads held
// RGBA8 bytes, kept as the oracle: convert every texture to a float image
// (render.FromRGBA8), resample it nearest-neighbour to the view size, and
// layer it with Image.Over, far to near.
func referenceComposite(t *testing.T, w, h int, layers []*TextureQuad) *render.Image {
	t.Helper()
	out := render.NewImage(w, h)
	for _, q := range layers {
		img := q.Image
		if img == nil {
			var err error
			if img, err = render.FromRGBA8(q.TexWidth, q.TexHeight, q.Texture); err != nil {
				t.Fatal(err)
			}
		}
		if img.W != w || img.H != h {
			scaled := render.NewImage(w, h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					r, g, b, a := img.At(x*img.W/w, y*img.H/h)
					scaled.Set(x, y, r, g, b, a)
				}
			}
			img = scaled
		}
		if err := out.Over(img); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// Compositing straight from RGBA8 quads must be bit-identical to the float
// reference: same float32 pixels, hence the same RGBA8 bytes a viewer shows.
func TestRGBA8CompositeMatchesFloatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randomTexture := func(w, h int) []byte {
		tex := make([]byte, w*h*4)
		rng.Read(tex)
		// Exercise the compositor's special cases too: fully transparent
		// and fully opaque runs.
		for i := 3; i < len(tex); i += 4 {
			switch rng.Intn(6) {
			case 0:
				tex[i] = 0
			case 1:
				tex[i] = 255
			}
		}
		return tex
	}
	const viewW, viewH = 48, 40
	sizes := [][2]int{{viewW, viewH}, {16, 16}, {100, 7}, {1, 1}, {viewW, 13}}
	for layers := 1; layers <= 8; layers++ {
		for _, mixed := range []bool{false, true} {
			t.Run(fmt.Sprintf("layers=%d mixed=%v", layers, mixed), func(t *testing.T) {
				s := NewScene()
				var quads []*TextureQuad
				for i := 0; i < layers; i++ {
					tw, th := viewW, viewH
					if mixed {
						sz := sizes[rng.Intn(len(sizes))]
						tw, th = sz[0], sz[1]
					}
					tex := randomTexture(tw, th)
					var q *TextureQuad
					if mixed && i%3 == 2 {
						// A quad built from a float image rides along.
						img, err := render.FromRGBA8(tw, th, tex)
						if err != nil {
							t.Fatal(err)
						}
						q = NewTextureQuad(fmt.Sprint("q", i), img, Vec3{}, float64(layers-i), 1, 1)
					} else {
						var err error
						q, err = NewTextureQuadRGBA8(fmt.Sprint("q", i), tw, th, tex, Vec3{}, float64(layers-i), 1, 1)
						if err != nil {
							t.Fatal(err)
						}
					}
					quads = append(quads, q) // inserted far to near
				}
				before := make([][]byte, len(quads))
				for i, q := range quads {
					before[i] = bytes.Clone(q.Texture)
				}
				s.Update(func(root *Group) {
					for _, q := range quads {
						root.Add(q)
					}
				})
				got := Rasterizer{Width: viewW, Height: viewH}.Render(s)
				want := referenceComposite(t, viewW, viewH, quads)
				for i := range want.Pix {
					if got.Pix[i] != want.Pix[i] {
						t.Fatalf("pixel channel %d: got %v, reference %v", i, got.Pix[i], want.Pix[i])
					}
				}
				if !bytes.Equal(got.ToRGBA8(), want.ToRGBA8()) {
					t.Fatal("RGBA8 output differs from the reference")
				}
				for i, q := range quads {
					if !bytes.Equal(q.Texture, before[i]) {
						t.Fatalf("compositing wrote to quad %d's texture", i)
					}
				}
			})
		}
	}
}

func TestNewTextureQuadRGBA8RejectsWrongLength(t *testing.T) {
	if _, err := NewTextureQuadRGBA8("q", 4, 4, make([]byte, 63), Vec3{}, 0, 1, 1); err == nil {
		t.Fatal("short texture accepted")
	}
	if _, err := NewTextureQuadRGBA8("q", -1, 4, nil, Vec3{}, 0, 1, 1); err == nil {
		t.Fatal("negative width accepted")
	}
}

// RenderInto reuses a caller's image; the result must not depend on whether
// the image is new or recycled through the render free list.
func TestRenderIntoRecycledImage(t *testing.T) {
	s := NewScene()
	tex := bytes.Repeat([]byte{200, 100, 50, 128}, 8*8)
	q, err := NewTextureQuadRGBA8("q", 8, 8, tex, Vec3{}, 0, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.Update(func(root *Group) { root.Add(q) })
	want := Rasterizer{Width: 8, Height: 8}.Render(s)
	dirty := render.GetImage(8, 8)
	dirty.Fill(1, 1, 1, 1)
	render.PutImage(dirty)
	got := render.GetImage(8, 8)
	Rasterizer{}.RenderInto(s, got)
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatalf("channel %d: %v vs %v", i, got.Pix[i], want.Pix[i])
		}
	}
}
