// Package costmodel generalizes the PSAM's single hardcoded hardware
// point — Optane's read/write asymmetry — into pluggable cost profiles.
// A Profile maps PSAM-style operation counts (DRAM/NVRAM reads and
// writes, cache hits and misses, page I/O) to a predicted cost in
// DRAM-access units, a predicted latency, and a predicted energy, the way
// GraphR models hardware as explicit per-operation latency and energy
// constants.
//
// The concrete profiles cover the hardware families the paper's §5
// discussion and the related work span:
//
//   - Optane: today's PSAM defaults (§3.1) — unit-charged reads, ω=12
//     writes. Selecting it reproduces the historical engine behaviour
//     bit-for-bit.
//   - DRAM-only: symmetric memory, the in-memory baseline.
//   - ReRAM: GraphR-style constants — reads near DRAM, writes an order
//     of magnitude more expensive in both time and energy.
//   - Flash/CSD: page-granular I/O reusing internal/semiext's page-cost
//     framing — a word read costs a whole device page, which is what
//     makes scattered access catastrophic on these systems.
//
// Serving layers act on the predictions: cost-based admission, overlay
// auto-compaction, and predicted-cost traversal direction selection all
// price their alternatives through the same profile.
package costmodel

import (
	"sage/internal/psam"
	"sage/internal/semiext"
)

// Counts is the operation-count vector a model prices: the PSAM counter
// classes plus explicit page-granular I/O for flash/CSD profiles.
type Counts struct {
	DRAMReads   int64
	DRAMWrites  int64
	NVRAMReads  int64
	NVRAMWrites int64
	CacheHits   int64
	CacheMisses int64
	// PageReads counts explicit page-granular device reads (semi-external
	// execution). Word-level NVRAM counts are converted to pages by the
	// page-granular profiles themselves.
	PageReads int64
}

// FromPSAM lifts a PSAM counter snapshot into a priceable count vector.
func FromPSAM(c psam.Counts) Counts {
	return Counts{
		DRAMReads:   c.DRAMReads,
		DRAMWrites:  c.DRAMWrites,
		NVRAMReads:  c.NVRAMReads,
		NVRAMWrites: c.NVRAMWrites,
		CacheHits:   c.CacheHits,
		CacheMisses: c.CacheMisses,
	}
}

// Profile is a hardware cost model: per-operation charge weights in
// DRAM-access units plus per-operation latency and energy constants. It
// prices operation counts (Cost, LatencyNS, EnergyNJ) and projects itself
// onto the PSAM simulator's charging weights (PSAM). The zero value is
// unusable; start from a built-in (Optane, DRAMOnly, ReRAM,
// FlashCSD) or Custom and override fields.
type Profile struct {
	// ModelName is the registry key reported by Name().
	ModelName string
	// NVRAMRead is the charge per NVRAM word read, in DRAM-access units.
	NVRAMRead int64
	// Omega is the multiplier of a large-memory write over a read (§3.1).
	Omega int64
	// MissCost is the charge per word of a Memory-Mode cache miss fill.
	MissCost int64
	// PageGranular marks device families (flash/CSD) whose large memory
	// moves whole pages: word-level NVRAM counts are charged as
	// ceil(words/semiext.PageWords) page transfers instead of per word.
	PageGranular bool
	// PageCost is the charge per device page transfer, in DRAM-access
	// units (see semiext.DefaultPageCost for the framing).
	PageCost int64
	// WordNS converts one DRAM-access unit of cost into nanoseconds of
	// predicted serial latency.
	WordNS float64
	// Energy constants, picojoules: per word for the memory classes, per
	// page transfer for EPage.
	EDRAMRead   float64
	EDRAMWrite  float64
	ENVRAMRead  float64
	ENVRAMWrite float64
	EMiss       float64
	EPage       float64
	// RemotePenalty multiplies NVRAM costs for cross-socket accesses in
	// the NUMA experiments (§5.2).
	RemotePenalty float64
}

// Name returns the registry key.
func (p *Profile) Name() string { return p.ModelName }

// pages converts a word count to device-page transfers (round up).
//
//sage:hotpath
func pages(words int64) int64 {
	return (words + semiext.PageWords - 1) / semiext.PageWords
}

// Cost prices c under the profile in DRAM-access units. Word-granular
// profiles charge NVRAM accesses per word (matching psam.Counts.Cost
// under the same weights); page-granular profiles convert them to page
// transfers first.
//
//sage:hotpath
func (p *Profile) Cost(c Counts) int64 {
	// Cache hits are DRAM-speed and uncharged, exactly as in
	// psam.Counts.Cost — only the miss fill costs extra.
	cost := c.DRAMReads + c.DRAMWrites +
		p.MissCost*c.CacheMisses + p.PageCost*c.PageReads
	if p.PageGranular {
		cost += p.PageCost * pages(c.NVRAMReads)
		cost += p.PageCost * p.Omega * pages(c.NVRAMWrites)
	} else {
		cost += p.NVRAMRead * c.NVRAMReads
		cost += p.NVRAMRead * p.Omega * c.NVRAMWrites
	}
	return cost
}

// LatencyNS converts the predicted cost into nanoseconds of serial
// access latency.
//
//sage:hotpath
func (p *Profile) LatencyNS(c Counts) float64 {
	return float64(p.Cost(c)) * p.WordNS
}

// EnergyNJ prices c's accesses with the profile's per-operation energy
// constants, in nanojoules.
//
//sage:hotpath
func (p *Profile) EnergyNJ(c Counts) float64 {
	pj := float64(c.DRAMReads)*p.EDRAMRead +
		float64(c.DRAMWrites)*p.EDRAMWrite +
		float64(c.CacheHits)*p.EDRAMRead +
		float64(c.CacheMisses)*p.EMiss +
		float64(c.PageReads)*p.EPage
	if p.PageGranular {
		pj += float64(pages(c.NVRAMReads)) * p.EPage
		pj += float64(pages(c.NVRAMWrites)) * p.EPage * float64(p.Omega)
	} else {
		pj += float64(c.NVRAMReads) * p.ENVRAMRead
		pj += float64(c.NVRAMWrites) * p.ENVRAMWrite
	}
	return pj / 1000
}

// SeqReadCost is the predicted cost of reading words contiguous
// large-memory words (one streamed range: page-granular devices amortize
// the page cost over the whole range).
//
//sage:hotpath
func (p *Profile) SeqReadCost(words int64) int64 {
	if words <= 0 {
		return 0
	}
	if p.PageGranular {
		return p.PageCost * pages(words)
	}
	return p.NVRAMRead * words
}

// RandReadCost is the predicted cost of n independent scattered
// large-memory reads: each lands on its own page on page-granular
// devices, which is exactly why sparse traversal collapses there.
//
//sage:hotpath
func (p *Profile) RandReadCost(n int64) int64 {
	if n <= 0 {
		return 0
	}
	if p.PageGranular {
		return p.PageCost * n
	}
	return p.NVRAMRead * n
}

// PSAM projects the profile onto the simulator's charging weights.
// Page-granular profiles approximate per-word weights by amortizing the
// page cost over a full page, so measured costs stay on the model's
// scale even though the simulator counts words.
func (p *Profile) PSAM() psam.Config {
	cfg := psam.Config{
		NVRAMRead:     p.NVRAMRead,
		Omega:         p.Omega,
		MissCost:      p.MissCost,
		RemotePenalty: p.RemotePenalty,
	}
	if p.PageGranular {
		cfg.NVRAMRead = p.PageCost / semiext.PageWords
		if cfg.NVRAMRead < 1 {
			cfg.NVRAMRead = 1
		}
	}
	return cfg
}

// Optane is the PSAM of §3 — today's engine defaults. Reads are charged
// unit cost (the ~3x device gap is hidden by memory-level parallelism,
// §3.2), writes the measured 12x-DRAM penalty [50, 96]. Energy constants
// follow the same shape: reads a few times DRAM, writes an order of
// magnitude above.
func Optane() Profile {
	return Profile{
		ModelName: "optane",
		NVRAMRead: 1, Omega: 12, MissCost: 3,
		WordNS:    5,
		EDRAMRead: 25, EDRAMWrite: 25,
		ENVRAMRead: 60, ENVRAMWrite: 250,
		EMiss:         180, // a 256B hardware fill's energy, amortized per word
		RemotePenalty: 3.7,
	}
}

// DRAMOnly is symmetric memory: the in-memory baseline where the
// semi-asymmetric discipline buys nothing and algorithm choice should
// revert to write-liberal variants.
func DRAMOnly() Profile {
	return Profile{
		ModelName: "dram",
		NVRAMRead: 1, Omega: 1, MissCost: 1,
		WordNS:    5,
		EDRAMRead: 25, EDRAMWrite: 25,
		ENVRAMRead: 25, ENVRAMWrite: 25,
		EMiss:         25,
		RemotePenalty: 2,
	}
}

// ReRAM uses GraphR-style constants: reads near DRAM speed, writes an
// order of magnitude more expensive in latency and dominated by cell
// programming energy — a steeper asymmetry than Optane on the write
// side, with cheap reads.
func ReRAM() Profile {
	return Profile{
		ModelName: "reram",
		NVRAMRead: 2, Omega: 8, MissCost: 2,
		WordNS:    5,
		EDRAMRead: 25, EDRAMWrite: 25,
		ENVRAMRead: 40, ENVRAMWrite: 600,
		EMiss:         120,
		RemotePenalty: 3,
	}
}

// FlashCSD models flash or computational-storage devices with the
// page-cost framing of internal/semiext: the device moves 4KB pages
// (semiext.PageWords words) at semiext.DefaultPageCost DRAM-access units
// each, and writes pay a program/erase multiplier. Scattered word reads
// each bill a full page — the structural cost Table 3 measures the
// semi-external systems against.
func FlashCSD() Profile {
	return Profile{
		ModelName:    "flash",
		PageGranular: true,
		PageCost:     semiext.DefaultPageCost,
		Omega:        4, MissCost: 3,
		WordNS:    5,
		EDRAMRead: 25, EDRAMWrite: 25,
		EMiss:         180,
		EPage:         25000, // ~25 nJ per 4KB page transfer
		RemotePenalty: 1,
	}
}

// Custom is the two-scalar cost model as a profile: the Optane baseline
// with the read charge and write multiplier overridden — what
// sage.WithCostModel(nvramRead, omega) selects.
func Custom(nvramRead, omega int64) Profile {
	p := Optane()
	p.ModelName = "custom"
	p.NVRAMRead = nvramRead
	p.Omega = omega
	return p
}

// Models enumerates the built-in profiles in registry order.
func Models() []Profile {
	return []Profile{Optane(), DRAMOnly(), ReRAM(), FlashCSD()}
}

// Lookup resolves a built-in profile by name.
func Lookup(name string) (Profile, bool) {
	for _, p := range Models() {
		if p.ModelName == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names returns the built-in profile names in registry order.
func Names() []string {
	models := Models()
	out := make([]string, len(models))
	for i := range models {
		out[i] = models[i].ModelName
	}
	return out
}
