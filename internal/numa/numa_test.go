package numa

import (
	"testing"
	"testing/quick"
)

func TestPaperTopology(t *testing.T) {
	topo := Paper(80)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Domains() != 8 {
		t.Fatalf("Domains = %d, want 8", topo.Domains())
	}
	if d := topo.DomainOf(0); d != 0 {
		t.Fatalf("DomainOf(0) = %d", d)
	}
	if d := topo.DomainOf(9); d != 0 {
		t.Fatalf("DomainOf(9) = %d", d)
	}
	if d := topo.DomainOf(10); d != 1 {
		t.Fatalf("DomainOf(10) = %d", d)
	}
	if d := topo.DomainOf(79); d != 7 {
		t.Fatalf("DomainOf(79) = %d", d)
	}
}

func TestPartialDomain(t *testing.T) {
	topo := Paper(25)
	if topo.Domains() != 3 {
		t.Fatalf("Domains = %d, want 3", topo.Domains())
	}
	if d := topo.DomainOf(24); d != 2 {
		t.Fatalf("DomainOf(24) = %d, want 2", d)
	}
}

func TestInvalidColors(t *testing.T) {
	topo := Paper(40)
	for _, c := range []int{-1, 40, 1000} {
		if d := topo.DomainOf(c); d != -1 {
			t.Fatalf("DomainOf(%d) = %d, want -1", c, d)
		}
	}
	if topo.SameDomain(-1, -1) {
		t.Fatal("two invalid colors must not share a domain")
	}
	if !topo.Remote(3, -1) {
		t.Fatal("invalid color must be remote to everyone")
	}
}

func TestSameDomainSymmetric(t *testing.T) {
	topo := Paper(80)
	f := func(a, b uint8) bool {
		x, y := int(a)%90-5, int(b)%90-5 // include invalid colors
		return topo.SameDomain(x, y) == topo.SameDomain(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSmallMachineOneDomain(t *testing.T) {
	topo := Paper(10)
	for a := 0; a < 10; a++ {
		for b := 0; b < 10; b++ {
			if topo.Remote(a, b) {
				t.Fatalf("colors %d,%d remote within one domain", a, b)
			}
		}
	}
}

func TestSocketWorkers(t *testing.T) {
	topo := Paper(25) // sockets [0,10) [10,20) [20,25)
	cases := []struct {
		color  int
		lo, hi int
	}{
		{0, 0, 10}, {9, 0, 10}, {10, 10, 20}, {19, 10, 20},
		{20, 20, 25}, {24, 20, 25}, // partial last socket
		{-1, 0, 0}, {25, 0, 0}, {1000, 0, 0},
	}
	for _, c := range cases {
		lo, hi := topo.SocketWorkers(c.color)
		if lo != c.lo || hi != c.hi {
			t.Fatalf("SocketWorkers(%d) = [%d,%d), want [%d,%d)", c.color, lo, hi, c.lo, c.hi)
		}
	}
}

// Property: every valid color lies inside its own socket range, and the
// range is exactly its domain's members.
func TestQuickSocketRangeConsistent(t *testing.T) {
	f := func(workersRaw, perDomRaw, colorRaw uint8) bool {
		topo := Topology{
			Workers:        int(workersRaw)%100 + 1,
			CoresPerDomain: int(perDomRaw)%12 + 1,
		}
		c := int(colorRaw) % topo.Workers
		lo, hi := topo.SocketWorkers(c)
		if c < lo || c >= hi {
			return false
		}
		for v := lo; v < hi; v++ {
			if !topo.SameDomain(c, v) {
				return false
			}
		}
		if lo > 0 && topo.SameDomain(c, lo-1) {
			return false
		}
		if hi < topo.Workers && topo.SameDomain(c, hi) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	if err := (Topology{Workers: 0, CoresPerDomain: 10}).Validate(); err == nil {
		t.Fatal("zero workers accepted")
	}
	if err := (Topology{Workers: 4, CoresPerDomain: 0}).Validate(); err == nil {
		t.Fatal("zero cores-per-domain accepted")
	}
	if err := DefaultCostModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultCostModel()
	bad.RemotePenalty = 0.5
	if err := bad.Validate(); err == nil {
		t.Fatal("remote penalty < 1 accepted")
	}
}

func TestAccessCost(t *testing.T) {
	topo := Paper(20) // two domains
	m := DefaultCostModel()
	local := m.AccessCost(topo, 0, 5, 1000) // same domain
	remote := m.AccessCost(topo, 0, 15, 1000)
	if local != 1000 {
		t.Fatalf("local cost = %d, want 1000", local)
	}
	if remote != 2500 {
		t.Fatalf("remote cost = %d, want 2500", remote)
	}
	if m.AccessCost(topo, 0, 5, 0) != 0 {
		t.Fatal("zero bytes should cost zero")
	}
}

func TestSpreadAccessCost(t *testing.T) {
	topo := Paper(80) // 8 domains
	m := DefaultCostModel()
	got := m.SpreadAccessCost(topo, 8000)
	// 1/8 local (1000 units) + 7/8 remote (7000 * 2.5).
	want := int64(1000 + 17500)
	if got != want {
		t.Fatalf("spread cost = %d, want %d", got, want)
	}
	// Single-domain machine: all local.
	topo1 := Paper(8)
	if got := m.SpreadAccessCost(topo1, 1000); got != 1000 {
		t.Fatalf("single-domain spread = %d, want 1000", got)
	}
}

func TestAccessCounter(t *testing.T) {
	topo := Paper(20)
	var a AccessCounter
	a.Count(topo, 0, 3)  // local
	a.Count(topo, 0, 12) // remote
	a.Count(topo, 0, 12) // remote
	a.Count(topo, 0, -1) // invalid: remote
	if a.Local != 1 || a.Remote != 3 {
		t.Fatalf("counter = %+v", a)
	}
	if p := a.RemotePercent(); p != 75 {
		t.Fatalf("RemotePercent = %v, want 75", p)
	}
	var b AccessCounter
	b.Count(topo, 5, 5)
	a.Merge(b)
	if a.Total() != 5 || a.Local != 2 {
		t.Fatalf("after merge: %+v", a)
	}
	var zero AccessCounter
	if zero.RemotePercent() != 0 {
		t.Fatal("empty counter should report 0%")
	}
}

// Property: cost is monotone in bytes and remote >= local.
func TestQuickCostMonotone(t *testing.T) {
	topo := Paper(40)
	m := DefaultCostModel()
	f := func(bytesRaw uint16, w, home uint8) bool {
		bytes := int64(bytesRaw)
		wc, hc := int(w)%40, int(home)%40
		c1 := m.AccessCost(topo, wc, hc, bytes)
		c2 := m.AccessCost(topo, wc, hc, bytes+100)
		if c2 < c1 {
			return false
		}
		local := m.AccessCost(topo, hc, hc, bytes)
		return c1 >= local
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
