package core

import "testing"

// TestKeepHalf tables spawn_colors' descent step: which half of a grouped
// item's colour groups the worker keeps and which it pushes.
func TestKeepHalf(t *testing.T) {
	type half struct{ lo, hi int32 }
	cases := []struct {
		name       string
		colors     []int32 // one group per colour
		lo, hi     int32
		own        int32
		colored    bool
		keep, push half
	}{
		{"even/own-in-lower", []int32{0, 1, 2, 3}, 0, 4, 1, true, half{0, 2}, half{2, 4}},
		{"even/own-in-upper", []int32{0, 1, 2, 3}, 0, 4, 3, true, half{2, 4}, half{0, 2}},
		{"even/own-in-both", []int32{5, 1, 2, 5}, 0, 4, 5, true, half{0, 2}, half{2, 4}},
		{"even/own-in-neither", []int32{0, 1, 2, 3}, 0, 4, 7, true, half{0, 2}, half{2, 4}},
		{"even/uncolored-own-in-upper", []int32{0, 1, 2, 3}, 0, 4, 3, false, half{0, 2}, half{2, 4}},
		{"odd/own-in-lower", []int32{0, 1, 2}, 0, 3, 0, true, half{0, 1}, half{1, 3}},
		{"odd/own-in-upper", []int32{0, 1, 2}, 0, 3, 2, true, half{1, 3}, half{0, 1}},
		{"odd/uncolored-own-in-upper", []int32{0, 1, 2}, 0, 3, 2, false, half{0, 1}, half{1, 3}},
		{"pair/own-in-upper", []int32{4, 9}, 0, 2, 9, true, half{1, 2}, half{0, 1}},
		// Colours no worker owns (the invalid-colouring ablation) are
		// groups like any other, and an own colour outside the table
		// matches none of them.
		{"outside/own-outside-table", []int32{-1, 100, -1, 100}, 0, 4, 3, true, half{0, 2}, half{2, 4}},
		{"outside/own-in-upper-beside-invalid", []int32{-1, 100, 3, -1, 100}, 0, 5, 3, true, half{2, 5}, half{0, 2}},
		// Only groups [lo, hi) count: the own colour at index 0 lies
		// outside the item.
		{"offset/own-in-upper", []int32{6, 0, 1, 2, 6, 3}, 1, 6, 6, true, half{3, 6}, half{1, 3}},
		{"offset/own-before-item", []int32{6, 0, 1, 2, 3}, 1, 5, 6, true, half{1, 3}, half{3, 5}},
	}
	for _, c := range cases {
		groups := make([]ColorRange, len(c.colors))
		for i, col := range c.colors {
			groups[i] = ColorRange{Color: col, Lo: int32(i), Hi: int32(i + 1)}
		}
		kl, kh, pl, ph := KeepHalf(groups, c.lo, c.hi, c.own, c.colored)
		if got := (half{kl, kh}); got != c.keep {
			t.Errorf("%s: keep %v, want %v", c.name, got, c.keep)
		}
		if got := (half{pl, ph}); got != c.push {
			t.Errorf("%s: push %v, want %v", c.name, got, c.push)
		}
	}
}
