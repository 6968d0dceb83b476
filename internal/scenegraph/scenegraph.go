// Package scenegraph provides the retained-mode scene structure at the heart
// of the Visapult viewer.
//
// The paper builds the viewer on an embedded scene graph (OpenRM) for two
// reasons this package reproduces: (1) it is the synchronization point that
// decouples interactive rendering from asynchronous, parallel updates arriving
// over the network — I/O service threads mutate the graph under a semaphore
// while the render thread keeps drawing the last consistent state — and
// (2) it is an umbrella for divergent data types: the IBRAVR slab textures,
// the AMR grid line geometry of Figure 3, and text annotations all live in
// one graph and are rendered together.
package scenegraph

import (
	"fmt"
	"sort"
	"sync"

	"visapult/internal/amr"
	"visapult/internal/render"
)

// Vec3 is a point or vector in world (voxel) coordinates.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product of v and o.
func (v Vec3) Dot(o Vec3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Node is any element of the scene graph.
type Node interface {
	// Name returns the node's identifier within its parent.
	Name() string
}

// Group is an interior node holding an ordered list of children.
type Group struct {
	name     string
	children []Node
}

// NewGroup creates an empty group.
func NewGroup(name string) *Group { return &Group{name: name} }

// Name implements Node.
func (g *Group) Name() string { return g.name }

// Add appends children to the group.
func (g *Group) Add(nodes ...Node) { g.children = append(g.children, nodes...) }

// Children returns the group's direct children.
func (g *Group) Children() []Node { return g.children }

// Remove deletes the first child with the given name and reports whether one
// was found.
func (g *Group) Remove(name string) bool {
	for i, c := range g.children {
		if c.Name() == name {
			g.children = append(g.children[:i], g.children[i+1:]...)
			return true
		}
	}
	return false
}

// Find returns the first descendant (depth-first) with the given name, or nil.
func (g *Group) Find(name string) Node {
	for _, c := range g.children {
		if c.Name() == name {
			return c
		}
		if sub, ok := c.(*Group); ok {
			if found := sub.Find(name); found != nil {
				return found
			}
		}
	}
	return nil
}

// TextureQuad is the IBRAVR primitive: a semi-transparent 2-D texture mapped
// onto a quadrilateral placed at the center plane of one data slab. The back
// end produces one per processing element per timestep.
type TextureQuad struct {
	name string
	// Texture is the slab's rendered texture as it travels on the wire:
	// packed RGBA8, TexWidth x TexHeight, straight alpha. The quad holds the
	// buffer it was given — for a viewer that is the very buffer the payload
	// arrived in — and never writes to it; the rasterizer composites from the
	// bytes directly.
	Texture             []byte
	TexWidth, TexHeight int
	// Image is the texture of a quad built from a float image instead
	// (NewTextureQuad); nil when Texture is set.
	Image *render.Image
	// Center is the slab center in world coordinates; Depth is the sort key
	// along the current view axis (larger is farther from the eye).
	Center Vec3
	Depth  float64
	// Width and Height are the world-space extents of the quad.
	Width, Height float64
	// Frame is the timestep this texture belongs to.
	Frame int
	// Elevation optionally holds the per-texel offset map of the quadmesh
	// IBRAVR extension ([14] in the paper); nil for the flat-quad base
	// algorithm.
	Elevation []float32
}

// NewTextureQuadRGBA8 creates a texture quad node holding tex, a w x h RGBA8
// texture, without copying or converting it. The caller must not modify tex
// afterwards.
func NewTextureQuadRGBA8(name string, w, h int, tex []byte, center Vec3, depth, width, height float64) (*TextureQuad, error) {
	if w < 0 || h < 0 || len(tex) != w*h*4 {
		return nil, fmt.Errorf("scenegraph: RGBA8 buffer length %d does not match %dx%d", len(tex), w, h)
	}
	return &TextureQuad{name: name, Texture: tex, TexWidth: w, TexHeight: h,
		Center: center, Depth: depth, Width: width, Height: height}, nil
}

// NewTextureQuad creates a texture quad node from a float image.
func NewTextureQuad(name string, img *render.Image, center Vec3, depth, width, height float64) *TextureQuad {
	return &TextureQuad{name: name, Image: img, Center: center, Depth: depth, Width: width, Height: height}
}

// Name implements Node.
func (t *TextureQuad) Name() string { return t.name }

// LineSet holds vector geometry (the AMR grid overlay) with one color.
type LineSet struct {
	name       string
	Segments   []amr.Segment
	R, G, B, A float32
}

// NewLineSet creates a line-set node.
func NewLineSet(name string, segments []amr.Segment, r, g, b, a float32) *LineSet {
	return &LineSet{name: name, Segments: segments, R: r, G: g, B: b, A: a}
}

// Name implements Node.
func (l *LineSet) Name() string { return l.name }

// TextNode is an annotation (dataset name, timestep counter, ...).
type TextNode struct {
	name string
	Text string
	Pos  Vec3
}

// NewTextNode creates a text node.
func NewTextNode(name, text string, pos Vec3) *TextNode {
	return &TextNode{name: name, Text: text, Pos: pos}
}

// Name implements Node.
func (t *TextNode) Name() string { return t.name }

// Scene is the thread-safe scene graph. Updates (from the viewer's I/O
// service threads) and reads (from the render thread) may happen
// concurrently; each sees a consistent graph.
type Scene struct {
	mu      sync.RWMutex
	root    *Group
	version uint64
}

// NewScene creates a scene with an empty root group.
func NewScene() *Scene {
	return &Scene{root: NewGroup("root")}
}

// Update runs fn with exclusive access to the root group and bumps the scene
// version. This is the "small amount of scene graph access control with
// semaphores" of the paper's section 3.4.
func (s *Scene) Update(fn func(root *Group)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.root)
	s.version++
}

// Read runs fn with shared (read-only) access to the root group. fn must not
// mutate the graph.
func (s *Scene) Read(fn func(root *Group)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.root)
}

// Version returns a counter incremented by every Update; the render thread
// uses it to tell whether anything changed since the last frame.
func (s *Scene) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// NodeCount returns the number of nodes in the scene (excluding the root).
func (s *Scene) NodeCount() int {
	count := 0
	s.Read(func(root *Group) { count = countNodes(root) - 1 })
	return count
}

func countNodes(n Node) int {
	total := 1
	if g, ok := n.(*Group); ok {
		for _, c := range g.children {
			total += countNodes(c)
		}
	}
	return total
}

// TextureQuads returns all texture quads in the scene, sorted far-to-near
// (decreasing depth) — the order the IBR compositor needs. The returned slice
// holds pointers into the live graph; callers must not mutate the nodes.
func (s *Scene) TextureQuads() []*TextureQuad {
	var quads []*TextureQuad
	s.Read(func(root *Group) { quads = collectQuads(root, nil) })
	sort.SliceStable(quads, func(i, j int) bool { return quads[i].Depth > quads[j].Depth })
	return quads
}

func collectQuads(n Node, acc []*TextureQuad) []*TextureQuad {
	switch v := n.(type) {
	case *TextureQuad:
		acc = append(acc, v)
	case *Group:
		for _, c := range v.children {
			acc = collectQuads(c, acc)
		}
	}
	return acc
}

// LineSets returns all line sets in the scene.
func (s *Scene) LineSets() []*LineSet {
	var lines []*LineSet
	s.Read(func(root *Group) { lines = collectLines(root, nil) })
	return lines
}

func collectLines(n Node, acc []*LineSet) []*LineSet {
	switch v := n.(type) {
	case *LineSet:
		acc = append(acc, v)
	case *Group:
		for _, c := range v.children {
			acc = collectLines(c, acc)
		}
	}
	return acc
}

// String summarizes the scene contents.
func (s *Scene) String() string {
	return fmt.Sprintf("scene v%d: %d nodes, %d texture quads, %d line sets",
		s.Version(), s.NodeCount(), len(s.TextureQuads()), len(s.LineSets()))
}
