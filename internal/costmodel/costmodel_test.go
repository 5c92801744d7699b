package costmodel

import (
	"testing"

	"sage/internal/psam"
	"sage/internal/semiext"
)

// The Optane profile must be today's PSAM defaults exactly: selecting it
// reproduces the historical engine behaviour bit-for-bit.
func TestOptaneMatchesPSAMDefaults(t *testing.T) {
	p := Optane()
	if got, want := p.PSAM(), psam.DefaultConfig(); got != want {
		t.Fatalf("Optane().PSAM() = %+v, want psam.DefaultConfig() = %+v", got, want)
	}
}

// Word-granular profiles must price a count vector identically to
// psam.Counts.Cost under the projected config — one scale, two codepaths.
func TestWordGranularCostMatchesPSAM(t *testing.T) {
	c := Counts{
		DRAMReads: 1000, DRAMWrites: 500,
		NVRAMReads: 9000, NVRAMWrites: 70,
		CacheHits: 11, CacheMisses: 13,
	}
	pc := psam.Counts{
		DRAMReads: 1000, DRAMWrites: 500,
		NVRAMReads: 9000, NVRAMWrites: 70,
		CacheHits: 11, CacheMisses: 13,
	}
	if got := FromPSAM(pc); got != c {
		t.Fatalf("FromPSAM = %+v, want %+v", got, c)
	}
	for _, p := range []Profile{Optane(), DRAMOnly(), ReRAM(), Custom(3, 4)} {
		if got, want := p.Cost(c), pc.Cost(p.PSAM()); got != want {
			t.Errorf("%s: Cost = %d, psam Cost = %d", p.ModelName, got, want)
		}
	}
}

// Page-granular pricing: a single scattered word read bills a whole page;
// a contiguous range amortizes; writes pay the program multiplier.
func TestFlashPageGranularCost(t *testing.T) {
	p := FlashCSD()
	if got, want := p.Cost(Counts{NVRAMReads: 1}), p.PageCost; got != want {
		t.Fatalf("1-word read = %d, want one page (%d)", got, want)
	}
	if got, want := p.Cost(Counts{NVRAMReads: semiext.PageWords}), p.PageCost; got != want {
		t.Fatalf("page-sized read = %d, want one page (%d)", got, want)
	}
	if got, want := p.Cost(Counts{NVRAMReads: semiext.PageWords + 1}), 2*p.PageCost; got != want {
		t.Fatalf("page+1 read = %d, want two pages (%d)", got, want)
	}
	if got, want := p.Cost(Counts{NVRAMWrites: 1}), p.Omega*p.PageCost; got != want {
		t.Fatalf("1-word write = %d, want omega pages (%d)", got, want)
	}
	// Scattered reads bill one page each; a sequential range of the same
	// size amortizes — the structural flash penalty.
	if rand, seq := p.RandReadCost(100), p.SeqReadCost(100); rand <= seq {
		t.Fatalf("RandReadCost(100)=%d should exceed SeqReadCost(100)=%d", rand, seq)
	}
	// Word-granular profiles do not distinguish the two.
	o := Optane()
	if rand, seq := o.RandReadCost(100), o.SeqReadCost(100); rand != seq {
		t.Fatalf("optane RandReadCost(100)=%d != SeqReadCost(100)=%d", rand, seq)
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	if len(names) != len(Models()) {
		t.Fatalf("Names/Models length mismatch")
	}
	for _, name := range names {
		p, ok := Lookup(name)
		if !ok || p.ModelName != name {
			t.Fatalf("Lookup(%q) = %+v, %v", name, p, ok)
		}
	}
	if _, ok := Lookup("tape"); ok {
		t.Fatal("Lookup of unknown model succeeded")
	}
}

// Custom(nvramRead, omega) is the Optane baseline with the two scalars
// overridden — what WithCostModel selects.
func TestCustomOverridesOptane(t *testing.T) {
	p := Custom(3, 4)
	want := Optane()
	want.ModelName = "custom"
	want.NVRAMRead = 3
	want.Omega = 4
	if p != want {
		t.Fatalf("Custom(3,4) = %+v, want %+v", p, want)
	}
	if got, want := p.PSAM(), (psam.Config{NVRAMRead: 3, Omega: 4, MissCost: 3, RemotePenalty: 3.7}); got != want {
		t.Fatalf("Custom(3,4).PSAM() = %+v, want %+v", got, want)
	}
}

// Energy ordering sanity: on a write-heavy workload ReRAM burns the most,
// DRAM the least; on pure reads NVRAM profiles exceed DRAM.
func TestEnergyOrdering(t *testing.T) {
	reram, optane, dram := ReRAM(), Optane(), DRAMOnly()
	writes := Counts{NVRAMWrites: 1000}
	if r, o := reram.EnergyNJ(writes), optane.EnergyNJ(writes); r <= o {
		t.Fatalf("ReRAM write energy %f should exceed Optane %f", r, o)
	}
	reads := Counts{NVRAMReads: 1000}
	if o, d := optane.EnergyNJ(reads), dram.EnergyNJ(reads); o <= d {
		t.Fatalf("Optane read energy %f should exceed DRAM %f", o, d)
	}
}

// EstimateOps shape: more edges cost more in every class, and the
// asymmetric profiles order classes sensibly (edge-state heaviest).
func TestEstimateOpsShape(t *testing.T) {
	p := Optane()
	for _, cl := range []Class{Traversal, Iterative, EdgeState, Local} {
		small := p.Cost(EstimateOps(cl, 1<<10, 1<<13))
		big := p.Cost(EstimateOps(cl, 1<<12, 1<<15))
		if small <= 0 || big <= small {
			t.Fatalf("%v: cost not increasing (small=%d big=%d)", cl, small, big)
		}
	}
	n, m := uint64(1<<12), uint64(1<<15)
	tr := p.Cost(EstimateOps(Traversal, n, m))
	it := p.Cost(EstimateOps(Iterative, n, m))
	es := p.Cost(EstimateOps(EdgeState, n, m))
	lo := p.Cost(EstimateOps(Local, n, m))
	if !(lo < tr && tr < it && tr < es) {
		t.Fatalf("class ordering local=%d < traversal=%d < {iterative=%d, edge-state=%d} violated", lo, tr, it, es)
	}
}

func TestOverlayOverhead(t *testing.T) {
	p := Optane()
	if got := OverlayOverhead(&p, 0, 0, 0); got != 0 {
		t.Fatalf("empty overlay overhead = %d, want 0", got)
	}
	one := OverlayOverhead(&p, 100, 10, 10)
	two := OverlayOverhead(&p, 200, 20, 20)
	if one <= 0 || two <= one {
		t.Fatalf("overhead not increasing: %d, %d", one, two)
	}
	// Deleted arcs are large-memory scans: flash prices them per page,
	// far above the word-granular profiles.
	f := FlashCSD()
	if fo, oo := OverlayOverhead(&f, 0, 0, 50), OverlayOverhead(&p, 0, 0, 50); fo <= oo {
		t.Fatalf("flash overhead %d should exceed optane %d", fo, oo)
	}
}

func TestClassString(t *testing.T) {
	for cl, want := range map[Class]string{
		Traversal: "traversal", Iterative: "iterative",
		EdgeState: "edge-state", Local: "local", Class(99): "unknown",
	} {
		if got := cl.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", cl, got, want)
		}
	}
}
