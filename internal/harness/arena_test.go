package harness

import (
	"bytes"
	"testing"

	"nabbitc/internal/bench"
	"nabbitc/internal/perf"
)

// TestArenaReport pins the arena ablation's load-bearing numbers: under
// either slot rule the lookup path allocates nothing and the create path
// nothing per node (a fresh store carves its pages as it goes: one slab
// per 1 024 nodes plus the pool's lists, and for the unbounded rule the
// directory levels), heat's real-engine run allocates no more with its
// bound hidden than a few directory levels, and the simulated schedules
// match.
func TestArenaReport(t *testing.T) {
	cfg := Config{Scale: bench.ScaleSmall, Cores: []int{1, 20}}.withDefaults()
	rep, err := arenaReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("arena report has %d tables, want 3", len(rep.Tables))
	}

	goc := rep.Tables[0]
	for _, row := range goc.Rows {
		switch row.Key {
		case "bounded/create", "unbounded/create":
			if a := row.Values["allocs_op"]; a > 1.0/256 {
				t.Errorf("%s: %v allocs/op, want page slabs and directory levels only (<= 1 per 256 creates)", row.Key, a)
			}
		case "bounded/lookup", "unbounded/lookup":
			if row.Values["allocs_op"] != 0 {
				t.Errorf("%s: %v allocs/op, want 0", row.Key, row.Values["allocs_op"])
			}
		default:
			t.Errorf("unexpected getorcreate row %q", row.Key)
		}
	}

	heat := rep.Tables[1]
	byKey := map[string]float64{}
	for _, row := range heat.Rows {
		byKey[row.Key] = row.Values["allocs_run"]
	}
	if b, u := byKey["bounded"], byKey["unbounded"]; b == 0 || u > b+8 {
		t.Errorf("real-heat allocs: unbounded %v, bounded %v; want at most a few directory levels more", u, b)
	}

	sched := rep.Tables[2]
	if len(sched.Rows) == 0 {
		t.Fatal("schedule-identity table is empty")
	}
	for _, row := range sched.Rows {
		if row.Values["schedule_match"] != 1 {
			t.Errorf("%s: schedule_match = %v, want 1", row.Key, row.Values["schedule_match"])
		}
		if row.Values["makespan_bounded"] != row.Values["makespan_unbounded"] {
			t.Errorf("%s: makespans differ with the bound declared and hidden", row.Key)
		}
	}
}

// TestConfigSeedChangesSchedules checks the -seed plumbing actually
// reaches the simulator: equal seeds must reproduce the fig8 document
// byte for byte, and different seeds must change it.
func TestConfigSeedChangesSchedules(t *testing.T) {
	emit := func(seed uint64) string {
		t.Helper()
		cfg := Config{Scale: bench.ScaleSmall, Cores: []int{1, 20}, Benchmarks: []string{"heat"}, Seed: seed}
		doc, err := Document("fig8", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := perf.Encode(&buf, doc); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if emit(7) != emit(7) {
		t.Fatal("equal seeds produced different fig8 documents")
	}
	if emit(7) == emit(8) {
		// Not strictly impossible, but at small scale heat steals enough
		// that two seeds colliding on every counter would be a plumbing
		// bug, not luck.
		t.Fatal("different seeds produced identical fig8 documents — seed not plumbed?")
	}
}
