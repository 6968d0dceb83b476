package main

import (
	"runtime"
	"sync"

	"visapult/internal/datagen"
	"visapult/internal/volume"
)

// datasetSpec names one generated time series. The combustion generator costs
// ~150 ns per voxel, so a full-resolution 32 MiB timestep would take over a
// second to generate; the benchmark has to set up several times per run, so
// datagen produces each timestep at 1/upsample of the resolution per axis and
// the benchmark interpolates it up. The pipeline only ever sees the result.
type datasetSpec struct {
	name       string
	nx, ny, nz int
	steps      int
}

// upsample is the per-axis factor between datagen's grid and the dataset's.
const upsample = 4

// The two datasets of the suite. D32 is 32 MiB per timestep, the roadmap's
// floor for steady state to dominate; Dwide is 16 MiB per timestep and only
// 16 voxels deep, so Z slabs render almost for free and produce one 1 MiB
// texture each — the shape that loads wire, fan-out and viewer.
var (
	d32   = datasetSpec{name: "D32", nx: 256, ny: 256, nz: 128, steps: 8}
	dwide = datasetSpec{name: "Dwide", nx: 512, ny: 512, nz: 16, steps: 8}
)

// shrunk divides every axis of d by div (the smoke tests run at div 4, 1/64 of
// the voxels); no axis goes below 8 voxels, one per PE of the widest
// decomposition.
func (d datasetSpec) shrunk(div int) datasetSpec {
	d.nx, d.ny, d.nz = max(d.nx/div, 8), max(d.ny/div, 8), max(d.nz/div, 8)
	return d
}

func (d datasetSpec) stepBytes() int64 { return int64(d.nx) * int64(d.ny) * int64(d.nz) * 4 }

// generate builds every timestep of d from seed, concurrently across nproc.
func (d datasetSpec) generate(seed int64) []*volume.Volume {
	gen := datagen.NewCombustion(datagen.CombustionConfig{
		NX: d.nx / upsample, NY: d.ny / upsample, NZ: d.nz / upsample,
		Timesteps: d.steps, Seed: seed,
	})
	vols := make([]*volume.Volume, d.steps)
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for t := range vols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			vols[t] = trilinearUp(gen.Generate(t), upsample)
		}()
	}
	wg.Wait()
	return vols
}

// axisTaps precomputes, for one axis of a trilinear upsample by f, the two
// source indices and the weight of the second for every output coordinate.
// Output voxel centres map to source coordinates (i+0.5)/f-0.5, clamped.
func axisTaps(n, f int) (i0, i1 []int, w []float32) {
	i0, i1, w = make([]int, n*f), make([]int, n*f), make([]float32, n*f)
	for i := range i0 {
		c := (float32(i)+0.5)/float32(f) - 0.5
		if c < 0 {
			c = 0
		}
		a := int(c)
		b := min(a+1, n-1)
		i0[i], i1[i], w[i] = a, b, c-float32(a)
	}
	return i0, i1, w
}

// trilinearUp interpolates lo up by f along every axis.
func trilinearUp(lo *volume.Volume, f int) *volume.Volume {
	hi := volume.MustNew(lo.NX*f, lo.NY*f, lo.NZ*f)
	x0, x1, wx := axisTaps(lo.NX, f)
	y0, y1, wy := axisTaps(lo.NY, f)
	z0, z1, wz := axisTaps(lo.NZ, f)
	row := func(y, z int) []float32 { return lo.Data[(z*lo.NY+y)*lo.NX:][:lo.NX] }
	for z := 0; z < hi.NZ; z++ {
		for y := 0; y < hi.NY; y++ {
			r00, r01 := row(y0[y], z0[z]), row(y1[y], z0[z])
			r10, r11 := row(y0[y], z1[z]), row(y1[y], z1[z])
			ty, tz := wy[y], wz[z]
			out := hi.Data[(z*hi.NY+y)*hi.NX:][:hi.NX]
			for x := range out {
				a, b, t := x0[x], x1[x], wx[x]
				v00 := r00[a] + (r00[b]-r00[a])*t
				v01 := r01[a] + (r01[b]-r01[a])*t
				v10 := r10[a] + (r10[b]-r10[a])*t
				v11 := r11[a] + (r11[b]-r11[a])*t
				v0 := v00 + (v01-v00)*ty
				v1 := v10 + (v11-v10)*ty
				out[x] = v0 + (v1-v0)*tz
			}
		}
	}
	return hi
}
