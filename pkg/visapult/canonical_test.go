package visapult

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"visapult/internal/wire"
)

// Golden hashes pin the v1 render-hash layout: if any of these change, a
// coalescing or cache key changed meaning and the "v1|" prefix in RenderHash
// must be bumped alongside a deliberate update here.
func TestRenderHashGolden(t *testing.T) {
	cases := []struct {
		name string
		spec RunSpec
		want string
	}{
		{"default", RunSpec{},
			"5ed524b415f9349d79fd2f3fef051c824516bd601385268f84f76fbb1736c792"},
		{"quick-combustion", RunSpec{
			Source: SourceSpec{Kind: "combustion", NX: 24, NY: 16, NZ: 16, Timesteps: 2, Seed: 42},
			PEs:    2, Mode: "overlapped"},
			"ccf58422de0ea3abb46297f054889c8b2744a7700579cc1ee5a89a748b711544"},
		{"paper-grayscale", RunSpec{
			Source: SourceSpec{Kind: "paper"},
			TF:     &TransferSpec{Kind: "grayscale"}},
			"46df7487a1323e825ffdb85e6c06ed2657cc721ad8fcaf3622ca61f92aacc17d"},
	}
	for _, tc := range cases {
		if got := tc.spec.RenderHash(); got != tc.want {
			t.Errorf("%s: RenderHash = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// A zero-valued spec and a spec spelling out every default must hash equal:
// canonicalization replaces zero values with the defaults the pipeline would
// actually use.
func TestRenderHashZeroValueIndependence(t *testing.T) {
	explicit := RunSpec{
		Source: SourceSpec{Kind: "combustion", NX: 64, NY: 64, NZ: 64, Timesteps: 1},
		PEs:    4, Mode: "serial",
		TF: &TransferSpec{Kind: "fire", Threshold: 0.05, OpacityScale: 0.7},
	}
	if got, want := explicit.RenderHash(), (RunSpec{}).RenderHash(); got != want {
		t.Errorf("explicit defaults hash %s, zero spec hashes %s", got, want)
	}
}

// Enum case and every delivery-only field must not move the hash: two
// submissions that differ only in how frames are delivered render the same
// pixels and must coalesce.
func TestRenderHashDeliveryIndependence(t *testing.T) {
	base := quickSpec()
	want := base.RenderHash()

	variants := []RunSpec{}
	v := base
	v.Mode = "Overlapped" // case only
	variants = append(variants, v)
	v = base
	v.Source.Kind = "COMBUSTION"
	variants = append(variants, v)
	v = base
	v.Transport = "striped"
	v.StripeLanes = 8
	variants = append(variants, v)
	v = base
	v.Viewers = 5
	v.ViewerQueue = 64
	variants = append(variants, v)
	v = base
	v.ViewerBandwidthMbps = 45
	v.Instrument = true
	v.RenderLoop = true
	variants = append(variants, v)

	for i, spec := range variants {
		if got := spec.RenderHash(); got != want {
			t.Errorf("variant %d: delivery-only change moved the hash: %s != %s", i, got, want)
		}
	}
}

// Render-relevant changes must move the hash.
func TestRenderHashSensitivity(t *testing.T) {
	base := quickSpec()
	want := base.RenderHash()

	change := func(name string, mut func(*RunSpec)) {
		spec := base
		mut(&spec)
		if got := spec.RenderHash(); got == want {
			t.Errorf("%s: render-relevant change did not move the hash", name)
		}
	}
	change("seed", func(s *RunSpec) { s.Source.Seed = 7 })
	change("dims", func(s *RunSpec) { s.Source.NX = 32 })
	change("pes", func(s *RunSpec) { s.PEs = 4 })
	change("mode", func(s *RunSpec) { s.Mode = "serial" })
	change("tf-kind", func(s *RunSpec) { s.TF = &TransferSpec{Kind: "grayscale"} })
	change("tf-threshold", func(s *RunSpec) { s.TF = &TransferSpec{Kind: "fire", Threshold: 0.2} })
	change("tf-opacity", func(s *RunSpec) { s.TF = &TransferSpec{Kind: "fire", OpacityScale: 0.3} })
	change("tf-points", func(s *RunSpec) {
		s.TF = &TransferSpec{Kind: "piecewise", Points: []TransferPoint{{Value: 0.5, R: 1, A: 1}}}
	})
	change("view-angle", func(s *RunSpec) { s.ViewAngleDeg = 30 })
	change("follow-view", func(s *RunSpec) { s.FollowView = true })

	// Two distinct piecewise tables must hash differently from each other.
	a, b := base, base
	a.TF = &TransferSpec{Kind: "piecewise", Points: []TransferPoint{{Value: 0.2, R: 1, A: 0.5}}}
	b.TF = &TransferSpec{Kind: "piecewise", Points: []TransferPoint{{Value: 0.2, R: 1, A: 0.6}}}
	if a.RenderHash() == b.RenderHash() {
		t.Error("distinct piecewise control points hashed equal")
	}
}

// RenderWorkers tunes how the pixels are computed, never which pixels: the
// parallel kernel is bit-exact against the serial one, so the field must stay
// out of the render identity. Any worker count must coalesce, cache-hit, and
// hash with any other — this test pins that exclusion so the field is never
// accidentally folded into Canonical()'s surviving fields or RenderHash.
func TestRenderWorkersOutsideRenderIdentity(t *testing.T) {
	base := quickSpec()
	want := base.RenderHash()
	wd, wt := base.cacheIdentity()

	for _, workers := range []int{1, 2, 8, 64} {
		spec := base
		spec.RenderWorkers = workers
		if got := spec.RenderHash(); got != want {
			t.Errorf("renderWorkers=%d moved the render hash: %s != %s", workers, got, want)
		}
		gd, gt := spec.cacheIdentity()
		if gd != wd || gt != wt {
			t.Errorf("renderWorkers=%d moved the cache identity", workers)
		}
		if c := spec.Canonical(); c.RenderWorkers != 0 {
			t.Errorf("Canonical kept renderWorkers=%d; execution tuning must not survive canonicalization", c.RenderWorkers)
		}
	}
}

// Canonical is a value transformation: the receiver (including its TF
// pointer) must not be mutated.
func TestCanonicalDoesNotMutate(t *testing.T) {
	tf := &TransferSpec{Kind: "Fire"}
	spec := RunSpec{Mode: "Overlapped", TF: tf}
	c := spec.Canonical()

	if spec.Mode != "Overlapped" || tf.Kind != "Fire" || tf.Threshold != 0 {
		t.Errorf("Canonical mutated its receiver: %+v tf=%+v", spec, tf)
	}
	if c.Mode != "overlapped" || c.TF.Kind != "fire" || c.TF.Threshold != 0.05 {
		t.Errorf("Canonical did not normalize: %+v tf=%+v", c, c.TF)
	}
}

// The new RunSpec fields (the TF table) must survive the dispatch protocol's
// run frame byte-for-byte: a worker must reconstruct the same render (and the
// same cache identity) the scheduler hashed.
func TestRunSpecJSONRoundTripThroughDispatch(t *testing.T) {
	spec := quickSpec()
	spec.Viewers = 2
	spec.TF = &TransferSpec{Kind: "piecewise", Points: []TransferPoint{
		{Value: 0.1, R: 0.2, G: 0.3, B: 0.4, A: 0.5},
		{Value: 0.9, R: 1, G: 0.5, B: 0, A: 1},
	}}

	specJSON, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	sent := wire.DispatchRun{Name: "rt", Spec: specJSON}
	var got wire.DispatchRun
	if err := got.Decode(sent.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if got.Name != "rt" {
		t.Fatalf("run name %q lost in round trip", got.Name)
	}
	var back RunSpec
	if err := json.Unmarshal(got.Spec, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("round trip changed the spec:\n got %+v\nwant %+v", back, spec)
	}
	if got, want := back.RenderHash(), spec.RenderHash(); got != want {
		t.Errorf("round trip moved the render hash: %s != %s", got, want)
	}
	gd, gt := back.cacheIdentity()
	wd, wt := spec.cacheIdentity()
	if gd != wd || gt != wt {
		t.Errorf("round trip moved the cache identity: (%s, %s) != (%s, %s)", gd, gt, wd, wt)
	}
}

func TestValidateFieldErrors(t *testing.T) {
	spec := RunSpec{
		Source:        SourceSpec{Kind: "volcano", Timesteps: -1},
		PEs:           -2,
		Mode:          "quantum",
		Transport:     "carrier-pigeon",
		TF:            &TransferSpec{Kind: "piecewise"},
		RenderWorkers: -1,
	}
	err := spec.Validate()
	if err == nil {
		t.Fatal("expected a validation error")
	}
	if !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("validation error does not match ErrInvalidSpec: %v", err)
	}
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("expected *ValidationError, got %T", err)
	}
	got := make(map[string]string)
	for _, f := range verr.Fields {
		got[f.Field] = f.Code
	}
	want := map[string]string{
		"source.kind":      "unknown_enum",
		"source.timesteps": "negative",
		"pes":              "negative",
		"mode":             "unknown_enum",
		"transport":        "unknown_enum",
		"tf.points":        "required",
		"renderWorkers":    "negative",
	}
	for field, code := range want {
		if got[field] != code {
			t.Errorf("field %s: code %q, want %q (all: %v)", field, got[field], code, got)
		}
	}

	// Unordered piecewise points.
	spec = quickSpec()
	spec.TF = &TransferSpec{Kind: "piecewise", Points: []TransferPoint{{Value: 0.9}, {Value: 0.1}}}
	err = spec.Validate()
	if !errors.As(err, &verr) {
		t.Fatalf("expected *ValidationError for unordered points, got %v", err)
	}
	if len(verr.Fields) != 1 || verr.Fields[0].Code != "unordered" {
		t.Errorf("unordered points: got %+v", verr.Fields)
	}

	// Duplicate control points get their own code: the binary-search Map
	// precondition is *strictly* increasing values, and "you listed 0.5
	// twice" is a better diagnostic than "unordered".
	spec = quickSpec()
	spec.TF = &TransferSpec{Kind: "piecewise", Points: []TransferPoint{{Value: 0.1}, {Value: 0.5}, {Value: 0.5}}}
	err = spec.Validate()
	if !errors.As(err, &verr) {
		t.Fatalf("expected *ValidationError for duplicate points, got %v", err)
	}
	if len(verr.Fields) != 1 || verr.Fields[0].Code != "duplicate" {
		t.Errorf("duplicate points: got %+v", verr.Fields)
	}

	// A healthy spec validates clean.
	healthy := quickSpec()
	if err := healthy.Validate(); err != nil {
		t.Errorf("quickSpec should validate: %v", err)
	}
	zero := &RunSpec{}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero spec should validate: %v", err)
	}
}

// Options must reject an invalid spec through the same shared Validate path
// the scheduler and the daemon use.
func TestOptionsValidates(t *testing.T) {
	spec := quickSpec()
	spec.Mode = "quantum"
	if _, err := spec.Options(); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("Options: got %v, want ErrInvalidSpec", err)
	}
	m := NewManager(1)
	defer m.Close()
	if err := m.CreateSpec("bad", spec); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("CreateSpec: got %v, want ErrInvalidSpec", err)
	}
}
