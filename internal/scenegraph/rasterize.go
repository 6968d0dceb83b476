package scenegraph

import (
	"math"

	"visapult/internal/render"
	"visapult/internal/volume"
)

// Rasterizer draws a scene into a render.Image with a software pipeline:
// texture quads are composited far-to-near (the IBR step), then line sets and
// text annotations are drawn on top. It is the stand-in for the paper's
// OpenGL/ImmersaDesk display path and lets the examples and tests observe
// exactly what the user would see.
type Rasterizer struct {
	// Width and Height of the output image.
	Width, Height int
	// ViewAxis selects the axis-aligned projection used to place geometry
	// (texture quads are already screen-aligned images).
	ViewAxis volume.Axis
	// WorldW and WorldH are the world-space extents mapped onto the image
	// (defaults to Width and Height, i.e. one voxel per pixel).
	WorldW, WorldH float64
}

// Render produces an image of the scene in a freshly allocated image.
func (rz Rasterizer) Render(s *Scene) *render.Image {
	w, h := rz.Width, rz.Height
	if w <= 0 {
		w = 256
	}
	if h <= 0 {
		h = 256
	}
	out := render.NewImage(w, h)
	rz.RenderInto(s, out)
	return out
}

// RenderInto draws the scene into out, which must be transparent black (a
// new image, or one from render.GetImage); its dimensions are the view size.
func (rz Rasterizer) RenderInto(s *Scene, out *render.Image) {
	w, h := out.W, out.H

	// 1. IBR composite of the slab textures, far to near, straight from each
	// quad's own storage: RGBA8 bytes go through the byte-to-float table, and
	// a texture of another size is sampled nearest-neighbour in place.
	// Nothing is converted or resampled into a temporary.
	var cols []int // source byte offset per output column, for the current quad
	for _, quad := range s.TextureQuads() {
		tex, img := quad.Texture, quad.Image
		tw, th := quad.TexWidth, quad.TexHeight
		if tex == nil {
			if img == nil {
				continue
			}
			tw, th = img.W, img.H
		}
		if tw <= 0 || th <= 0 {
			continue
		}
		if tw == w && th == h {
			if tex != nil {
				overBytes(out.Pix, tex)
			} else {
				out.Over(img) //nolint:errcheck // dimensions match
			}
			continue
		}
		cols = cols[:0]
		for x := 0; x < w; x++ {
			cols = append(cols, (x*tw/w)*4)
		}
		for y := 0; y < h; y++ {
			dst, row := out.Pix[y*w*4:(y+1)*w*4], (y*th/h)*tw*4
			if tex != nil {
				overBytesSampled(dst, tex[row:], cols)
			} else {
				overFloatsSampled(dst, img.Pix[row:], cols)
			}
		}
	}

	// 2. Vector geometry on top.
	worldW, worldH := rz.WorldW, rz.WorldH
	if worldW <= 0 {
		worldW = float64(w)
	}
	if worldH <= 0 {
		worldH = float64(h)
	}
	sx := float64(w-1) / worldW
	sy := float64(h-1) / worldH
	for _, ls := range s.LineSets() {
		for _, seg := range ls.Segments {
			x0, y0 := rz.project(float64(seg.A.X), float64(seg.A.Y), float64(seg.A.Z), sx, sy)
			x1, y1 := rz.project(float64(seg.B.X), float64(seg.B.Y), float64(seg.B.Z), sx, sy)
			drawLine(out, x0, y0, x1, y1, ls.R, ls.G, ls.B, ls.A)
		}
	}
}

// unit8 maps an 8-bit channel to its float value: exactly the conversion
// render.FromRGBA8 applies, so compositing from bytes is bit-identical to
// converting the texture to a float image first.
var unit8 = func() (t [256]float32) {
	for i := range t {
		t[i] = float32(i) / 255
	}
	return
}()

// overBytes composites RGBA8 source pixels over dst in place.
func overBytes(dst []float32, src []byte) {
	src = src[:len(dst)]
	for i := 0; i+3 < len(dst); i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = render.OverPixel(
			unit8[src[i]], unit8[src[i+1]], unit8[src[i+2]], unit8[src[i+3]],
			dst[i], dst[i+1], dst[i+2], dst[i+3])
	}
}

// overBytesSampled composites one output row from a source row of another
// width: output pixel x takes the source pixel at byte offset cols[x].
func overBytesSampled(dst []float32, row []byte, cols []int) {
	for x, c := range cols {
		i := x * 4
		dst[i], dst[i+1], dst[i+2], dst[i+3] = render.OverPixel(
			unit8[row[c]], unit8[row[c+1]], unit8[row[c+2]], unit8[row[c+3]],
			dst[i], dst[i+1], dst[i+2], dst[i+3])
	}
}

// overFloatsSampled is overBytesSampled for a quad holding a float image.
func overFloatsSampled(dst, row []float32, cols []int) {
	for x, c := range cols {
		i := x * 4
		dst[i], dst[i+1], dst[i+2], dst[i+3] = render.OverPixel(
			row[c], row[c+1], row[c+2], row[c+3],
			dst[i], dst[i+1], dst[i+2], dst[i+3])
	}
}

// project maps a world point to pixel coordinates under the axis-aligned
// orthographic projection.
func (rz Rasterizer) project(x, y, z, sx, sy float64) (int, int) {
	var u, v float64
	switch rz.ViewAxis {
	case volume.AxisX:
		u, v = y, z
	case volume.AxisY:
		u, v = x, z
	default:
		u, v = x, y
	}
	return int(math.Round(u * sx)), int(math.Round(v * sy))
}

// drawLine draws a straight line with Bresenham's algorithm, alpha-blending
// the color over the existing pixels.
func drawLine(img *render.Image, x0, y0, x1, y1 int, r, g, b, a float32) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx := 1
	if x0 > x1 {
		sx = -1
	}
	sy := 1
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		if x0 >= 0 && x0 < img.W && y0 >= 0 && y0 < img.H {
			dr, dg, db, da := img.At(x0, y0)
			nr, ng, nb, na := render.OverPixel(r, g, b, a, dr, dg, db, da)
			img.Set(x0, y0, nr, ng, nb, na)
		}
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
