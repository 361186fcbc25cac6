package bench

import (
	"testing"

	"nabbitc/internal/core"
)

type fakeSpec struct {
	core.FuncSpec
}

func newFake() core.CostSpec {
	return fakeSpec{core.FuncSpec{
		ColorFn:     func(k core.Key) int { return int(k) % 8 },
		FootprintFn: func(core.Key) core.Footprint { return core.Footprint{Compute: 5} },
	}}
}

func TestBadColoringShiftsDomain(t *testing.T) {
	spec := BadColoring(newFake(), 8)
	// Color 2 shifted by half the machine: 6.
	if c := spec.Color(2); c != 6 {
		t.Fatalf("bad color = %d, want 6", c)
	}
	// Data home unchanged.
	if h := core.HomeOf(spec, 2); h != 2 {
		t.Fatalf("home = %d, want 2", h)
	}
	// Footprints pass through.
	if fp := spec.(core.CostSpec).FootprintOf(2); fp.Compute != 5 {
		t.Fatalf("footprint lost: %+v", fp)
	}
}

func TestBadColoringLeavesInvalidAlone(t *testing.T) {
	base := core.Recolored{Spec: newFake(), ColorFn: func(core.Key) int { return -1 }}
	spec := BadColoring(core.CostSpec(base), 8)
	if c := spec.Color(3); c != -1 {
		t.Fatalf("invalid color transformed to %d", c)
	}
}

func TestInvalidColoring(t *testing.T) {
	spec := InvalidColoring(newFake())
	if c := spec.Color(5); c != -1 {
		t.Fatalf("invalid color = %d, want -1", c)
	}
	if h := core.HomeOf(spec, 5); h != 5 {
		t.Fatalf("home = %d, want 5", h)
	}
}

func TestScaleString(t *testing.T) {
	if ScaleSmall.String() != "small" || ScaleDefault.String() != "default" {
		t.Fatal("scale names wrong")
	}
	if Scale(9).String() == "" {
		t.Fatal("unknown scale has empty name")
	}
}
