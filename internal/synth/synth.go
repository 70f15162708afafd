// Package synth generates deterministic synthetic placement benchmarks
// modeled on the ISPD 2015 detailed-routing-driven placement contest suite.
//
// The real contest designs are proprietary LEF/DEF data; this generator is
// the substitution documented in DESIGN.md. Each of the 20 designs of the
// paper's Table I is reproduced by name with per-family parameters —
// utilization, macro count and layout, net-degree distribution, Rent-style
// net locality, pin density, and PG-rail pitch — chosen to mimic the
// published character of that family, scaled to CPU-feasible sizes. The
// hypergraph, geometry and PG rails exercise exactly the code paths the
// paper's algorithms consume.
//
// Generation is fully deterministic: the same name always yields the same
// design.
package synth

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// MacroLayout selects how a family arranges its fixed macros.
type MacroLayout uint8

const (
	// MacroNone places no macros.
	MacroNone MacroLayout = iota
	// MacroGrid arranges macros in a regular array (matrix_mult_a style,
	// Fig. 4 of the paper).
	MacroGrid
	// MacroEdge lines macros along two die edges (pci_bridge style).
	MacroEdge
	// MacroScattered drops macros quasi-randomly (superblue style).
	MacroScattered
)

// Params fully describes a synthetic design family instance.
type Params struct {
	Name        string
	NumCells    int     // movable standard cells
	Utilization float64 // movable area / free area
	AspectRatio float64 // die height / width

	Macros      int
	MacroLayout MacroLayout
	MacroFrac   float64 // fraction of die area covered by macros

	NetsPerCell float64 // nets ≈ NetsPerCell · NumCells
	TwoPinFrac  float64 // fraction of nets with exactly two pins
	MaxDegree   int     // cap for the geometric degree tail
	HighFanout  int     // number of clock-like high-fanout nets
	Locality    float64 // 0 = global nets, 1 = strongly clustered

	IOPads int

	// HotModules designates this many index-space clusters as "hot": their
	// cells carry HotNetBoost× the normal net density, so after placement
	// they become genuine routing hotspots (real designs' congestion is
	// module-structured, not uniform).
	HotModules  int
	HotNetBoost float64

	RowsPerRail int // PG rail every this many rows
	RouteLayers int
	// CapacityScale shrinks routing capacity to create congestion pressure;
	// 1.0 is relaxed, lower is harder.
	CapacityScale float64
}

// maxSynthPins bounds the expected pin count of a generated design; params
// whose net budget would exceed it are rejected up front rather than left to
// exhaust memory mid-generation (a 1M-cell superblue sits near 4M pins).
const maxSynthPins = 256 << 20

// Validate rejects parameter sets that cannot generate a well-formed design:
// non-positive or overflow-prone sizes, out-of-range ratios. FromParams runs
// it automatically; callers constructing Params programmatically can call it
// early for a better error site.
func (p *Params) Validate() error {
	if p.NumCells <= 0 {
		return fmt.Errorf("synth: %s: NumCells must be positive", p.Name)
	}
	if p.Utilization <= 0 || p.Utilization >= 1 {
		return fmt.Errorf("synth: %s: utilization %v out of (0,1)", p.Name, p.Utilization)
	}
	if p.Macros > 0 && (p.MacroFrac <= 0 || p.MacroFrac >= 0.8) {
		return fmt.Errorf("synth: %s: MacroFrac %v out of range", p.Name, p.MacroFrac)
	}
	if p.NetsPerCell < 0 || p.TwoPinFrac < 0 || p.TwoPinFrac > 1 {
		return fmt.Errorf("synth: %s: NetsPerCell/TwoPinFrac out of range", p.Name)
	}
	if p.Macros < 0 || p.IOPads < 0 || p.HighFanout < 0 || p.HotModules < 0 || p.MaxDegree < 0 {
		return fmt.Errorf("synth: %s: negative structural count", p.Name)
	}
	// Overflow guard: the expected pin count must fit comfortably in memory
	// (and in int32-adjacent downstream math). All factors are evaluated in
	// float64 so a hostile NumCells×MaxDegree product cannot wrap around.
	deg := float64(maxInt(p.MaxDegree, 2))
	boost := math.Max(p.HotNetBoost, 1)
	pins := float64(p.NumCells) * math.Max(p.NetsPerCell, 1) * deg * boost
	if pins > maxSynthPins {
		return fmt.Errorf("synth: %s: expected pin count %.3g exceeds the %d limit", p.Name, pins, maxSynthPins)
	}
	return nil
}

// seedFor derives a stable RNG seed from the design name.
func seedFor(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Catalog returns the parameter set for every named Table I design plus the
// test-scale designs, keyed by name.
func Catalog() map[string]Params {
	m := make(map[string]Params)
	add := func(p Params) { m[p.Name] = p }

	// des_perf family: dense logic, no or few macros, very high utilization.
	add(Params{Name: "des_perf_1", NumCells: 4200, Utilization: 0.88, AspectRatio: 1.0,
		Macros: 0, MacroLayout: MacroNone,
		NetsPerCell: 1.05, TwoPinFrac: 0.62, MaxDegree: 10, HighFanout: 3, Locality: 0.72,
		IOPads: 60, HotModules: 4, HotNetBoost: 2.6, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 1.15})
	add(Params{Name: "des_perf_a", NumCells: 4000, Utilization: 0.55, AspectRatio: 1.0,
		Macros: 4, MacroLayout: MacroEdge, MacroFrac: 0.18,
		NetsPerCell: 1.05, TwoPinFrac: 0.62, MaxDegree: 10, HighFanout: 3, Locality: 0.70,
		IOPads: 60, HotModules: 5, HotNetBoost: 3.0, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 1.90})
	add(Params{Name: "des_perf_b", NumCells: 4000, Utilization: 0.50, AspectRatio: 1.0,
		Macros: 4, MacroLayout: MacroEdge, MacroFrac: 0.14,
		NetsPerCell: 1.05, TwoPinFrac: 0.64, MaxDegree: 10, HighFanout: 3, Locality: 0.74,
		IOPads: 60, HotModules: 2, HotNetBoost: 1.8, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 0.72})

	// edit_dist: large, several big macros, medium congestion but huge nets.
	add(Params{Name: "edit_dist_a", NumCells: 4800, Utilization: 0.58, AspectRatio: 1.0,
		Macros: 6, MacroLayout: MacroEdge, MacroFrac: 0.22,
		NetsPerCell: 1.00, TwoPinFrac: 0.58, MaxDegree: 12, HighFanout: 4, Locality: 0.60,
		IOPads: 80, HotModules: 6, HotNetBoost: 2.6, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 0.58})

	// fft family: small, hot.
	add(Params{Name: "fft_1", NumCells: 2000, Utilization: 0.84, AspectRatio: 1.0,
		Macros: 0, MacroLayout: MacroNone,
		NetsPerCell: 1.10, TwoPinFrac: 0.66, MaxDegree: 8, HighFanout: 2, Locality: 0.76,
		IOPads: 40, HotModules: 3, HotNetBoost: 2.2, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 0.76})
	add(Params{Name: "fft_2", NumCells: 2000, Utilization: 0.50, AspectRatio: 1.0,
		Macros: 0, MacroLayout: MacroNone,
		NetsPerCell: 1.10, TwoPinFrac: 0.66, MaxDegree: 8, HighFanout: 2, Locality: 0.76,
		IOPads: 40, HotModules: 2, HotNetBoost: 1.7, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 0.61})
	add(Params{Name: "fft_a", NumCells: 1800, Utilization: 0.30, AspectRatio: 1.0,
		Macros: 6, MacroLayout: MacroScattered, MacroFrac: 0.20,
		NetsPerCell: 1.08, TwoPinFrac: 0.66, MaxDegree: 8, HighFanout: 2, Locality: 0.72,
		IOPads: 40, HotModules: 2, HotNetBoost: 1.7, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 0.85})
	add(Params{Name: "fft_b", NumCells: 1800, Utilization: 0.32, AspectRatio: 1.0,
		Macros: 6, MacroLayout: MacroScattered, MacroFrac: 0.20,
		NetsPerCell: 1.08, TwoPinFrac: 0.62, MaxDegree: 10, HighFanout: 3, Locality: 0.64,
		IOPads: 40, HotModules: 5, HotNetBoost: 2.4, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 0.80})

	// matrix_mult family: the macro-array designs (Fig. 4 uses matrix_mult_a).
	add(Params{Name: "matrix_mult_1", NumCells: 5200, Utilization: 0.80, AspectRatio: 1.0,
		Macros: 0, MacroLayout: MacroNone,
		NetsPerCell: 1.02, TwoPinFrac: 0.60, MaxDegree: 10, HighFanout: 3, Locality: 0.70,
		IOPads: 70, HotModules: 5, HotNetBoost: 2.8, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 1.12})
	add(Params{Name: "matrix_mult_2", NumCells: 5200, Utilization: 0.78, AspectRatio: 1.0,
		Macros: 0, MacroLayout: MacroNone,
		NetsPerCell: 1.02, TwoPinFrac: 0.60, MaxDegree: 10, HighFanout: 3, Locality: 0.68,
		IOPads: 70, HotModules: 5, HotNetBoost: 2.8, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 1.07})
	add(Params{Name: "matrix_mult_a", NumCells: 5000, Utilization: 0.42, AspectRatio: 1.0,
		Macros: 12, MacroLayout: MacroGrid, MacroFrac: 0.24,
		NetsPerCell: 1.02, TwoPinFrac: 0.60, MaxDegree: 10, HighFanout: 3, Locality: 0.70,
		IOPads: 70, HotModules: 3, HotNetBoost: 2.2, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 2.01})
	add(Params{Name: "matrix_mult_b", NumCells: 5000, Utilization: 0.42, AspectRatio: 1.0,
		Macros: 12, MacroLayout: MacroGrid, MacroFrac: 0.24,
		NetsPerCell: 1.02, TwoPinFrac: 0.58, MaxDegree: 10, HighFanout: 3, Locality: 0.62,
		IOPads: 70, HotModules: 6, HotNetBoost: 3.2, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 2.10})
	add(Params{Name: "matrix_mult_c", NumCells: 5000, Utilization: 0.42, AspectRatio: 1.0,
		Macros: 12, MacroLayout: MacroGrid, MacroFrac: 0.24,
		NetsPerCell: 1.02, TwoPinFrac: 0.60, MaxDegree: 10, HighFanout: 3, Locality: 0.70,
		IOPads: 70, HotModules: 3, HotNetBoost: 2.2, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 2.03})

	// pci_bridge: small control designs with edge macros.
	add(Params{Name: "pci_bridge32_a", NumCells: 1600, Utilization: 0.38, AspectRatio: 1.0,
		Macros: 4, MacroLayout: MacroEdge, MacroFrac: 0.18,
		NetsPerCell: 1.06, TwoPinFrac: 0.64, MaxDegree: 9, HighFanout: 2, Locality: 0.70,
		IOPads: 50, HotModules: 3, HotNetBoost: 2.4, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 0.64})
	add(Params{Name: "pci_bridge32_b", NumCells: 1600, Utilization: 0.26, AspectRatio: 1.0,
		Macros: 6, MacroLayout: MacroEdge, MacroFrac: 0.24,
		NetsPerCell: 1.06, TwoPinFrac: 0.64, MaxDegree: 9, HighFanout: 2, Locality: 0.72,
		IOPads: 50, HotModules: 1, HotNetBoost: 1.5, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 0.73})

	// superblue: large mixed-size designs with many scattered macros.
	superblue := func(name string, cells int, util, macroFrac, locality, capScale float64, macros, hotMods int, hotBoost float64) Params {
		return Params{Name: name, NumCells: cells, Utilization: util, AspectRatio: 1.0,
			Macros: macros, MacroLayout: MacroScattered, MacroFrac: macroFrac,
			NetsPerCell: 0.98, TwoPinFrac: 0.56, MaxDegree: 14, HighFanout: 6, Locality: locality,
			IOPads: 120, HotModules: hotMods, HotNetBoost: hotBoost, RowsPerRail: 2, RouteLayers: 6, CapacityScale: capScale}
	}
	add(superblue("superblue11_a", 9000, 0.40, 0.28, 0.66, 1.26, 24, 2, 1.7))
	add(superblue("superblue12", 11000, 0.55, 0.20, 0.58, 1.44, 18, 8, 3.2))
	add(superblue("superblue14", 8000, 0.38, 0.24, 0.68, 1.26, 20, 1, 1.5))
	add(superblue("superblue16_a", 8500, 0.42, 0.22, 0.66, 1.23, 18, 4, 2.4))
	add(superblue("superblue19", 7000, 0.40, 0.24, 0.66, 1.55, 18, 4, 2.6))

	// superblue *_big family: the large-scale targets of the multilevel flow
	// (100k–1M movable cells, near the published superblue sizes). Same
	// family character as the Table I superblues, more IO and high-fanout
	// structure; generation streams in O(cells) memory.
	big := func(name string, cells, macros int, util, macroFrac, capScale float64) Params {
		p := superblue(name, cells, util, macroFrac, 0.70, capScale, macros, 8, 2.0)
		p.IOPads = 400
		p.HighFanout = 8
		return p
	}
	add(big("superblue1_big", 100_000, 32, 0.45, 0.22, 1.35))
	add(big("superblue4_big", 250_000, 40, 0.45, 0.22, 1.40))
	add(big("superblue11_big", 500_000, 48, 0.42, 0.24, 1.45))
	add(big("superblue19_big", 1_000_000, 56, 0.42, 0.24, 1.50))

	// Tiny designs for unit and integration tests.
	add(Params{Name: "tiny_open", NumCells: 300, Utilization: 0.40, AspectRatio: 1.0,
		Macros: 0, MacroLayout: MacroNone,
		NetsPerCell: 1.05, TwoPinFrac: 0.65, MaxDegree: 6, HighFanout: 1, Locality: 0.7,
		IOPads: 16, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 1.20})
	add(Params{Name: "tiny_hot", NumCells: 500, Utilization: 0.82, AspectRatio: 1.0,
		Macros: 2, MacroLayout: MacroGrid, MacroFrac: 0.12,
		NetsPerCell: 1.10, TwoPinFrac: 0.62, MaxDegree: 8, HighFanout: 2, Locality: 0.72,
		IOPads: 16, HotModules: 2, HotNetBoost: 2.5, RowsPerRail: 2, RouteLayers: 4, CapacityScale: 0.48})
	return m
}

// BigDesigns lists the large-scale superblue families in ascending size
// (100k, 250k, 500k, 1M movable cells) — the multilevel flow's targets.
func BigDesigns() []string {
	return []string{"superblue1_big", "superblue4_big", "superblue11_big", "superblue19_big"}
}

// Table1Designs lists the 20 Table I design names in paper order.
func Table1Designs() []string {
	return []string{
		"des_perf_1", "des_perf_a", "des_perf_b", "edit_dist_a",
		"fft_1", "fft_2", "fft_a", "fft_b",
		"matrix_mult_1", "matrix_mult_2", "matrix_mult_a", "matrix_mult_b", "matrix_mult_c",
		"pci_bridge32_a", "pci_bridge32_b",
		"superblue11_a", "superblue12", "superblue14", "superblue16_a", "superblue19",
	}
}

// Names returns all catalog names sorted.
func Names() []string {
	cat := Catalog()
	out := make([]string, 0, len(cat))
	for n := range cat {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Generate builds the named design from the catalog.
func Generate(name string) (*netlist.Design, error) {
	p, ok := Catalog()[name]
	if !ok {
		return nil, fmt.Errorf("synth: unknown design %q (known: %v)", name, Names())
	}
	return FromParams(p)
}

// MustGenerate is Generate for known-good names; it panics on error.
func MustGenerate(name string) *netlist.Design {
	d, err := Generate(name)
	if err != nil {
		panic(err)
	}
	return d
}

// FromParams builds a design from an explicit parameter set.
func FromParams(p Params) (*netlist.Design, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seedFor(p.Name)))

	const (
		rowHeight = 8.0
		siteWidth = 1.0
	)

	// Cell widths: mixture of 1-6 sites, mean ≈ 2.6 sites.
	widths := make([]float64, p.NumCells)
	var movArea float64
	for i := range widths {
		w := float64(1 + rng.Intn(3) + rng.Intn(3)) // 1..5-ish, mode around 3
		widths[i] = w * siteWidth
		movArea += widths[i] * rowHeight
	}

	// Die sizing: free area = movable/util; total = free/(1-macroFrac).
	util := p.Utilization
	freeArea := movArea / util
	total := freeArea
	if p.Macros > 0 {
		total = freeArea / (1 - p.MacroFrac)
	}
	ar := p.AspectRatio
	if ar == 0 {
		ar = 1
	}
	dieW := math.Sqrt(total / ar)
	// Round die height to whole rows and width to whole sites.
	numRows := int(math.Ceil(dieW * ar / rowHeight))
	dieH := float64(numRows) * rowHeight
	dieW = math.Ceil(dieW/siteWidth) * siteWidth
	die := geom.NewRect(0, 0, dieW, dieH)

	b := netlist.NewBuilder(p.Name, die, rowHeight, siteWidth)
	b.SetRouteLayers(maxInt(2, p.RouteLayers))
	b.SetTargetDensity(math.Min(0.95, util+0.12))
	capScale := p.CapacityScale
	if capScale == 0 {
		capScale = 1
	}
	b.SetRouteCapScale(capScale)

	// ---- Macros ----
	macroRects := placeMacros(rng, p, die)
	for i, r := range macroRects {
		b.AddCell("macro_"+strconv.Itoa(i), netlist.Macro,
			r.Center().X, r.Center().Y, r.W(), r.H())
	}

	// ---- Standard cells ----
	// Initial positions: spread uniformly over free area (the placer
	// re-initializes anyway; these are just sane starting coordinates).
	firstStd := len(macroRects)
	for i := 0; i < p.NumCells; i++ {
		var x, y float64
		for try := 0; ; try++ {
			x = die.Lo.X + rng.Float64()*die.W()
			y = die.Lo.Y + rng.Float64()*die.H()
			if try > 50 || !insideAny(geom.Point{X: x, Y: y}, macroRects) {
				break
			}
		}
		b.AddCell("c"+strconv.Itoa(i), netlist.StdCell, x, y, widths[i], rowHeight)
	}

	// ---- IO pads ----
	firstIO := firstStd + p.NumCells
	for i := 0; i < p.IOPads; i++ {
		x, y := perimeterPoint(rng, die)
		b.AddCell("io"+strconv.Itoa(i), netlist.IOPad, x, y, siteWidth, siteWidth)
	}

	// ---- Nets: Rent-style clustered hypergraph ----
	// Cells are conceptually ordered along a space-filling cluster hierarchy;
	// a net picks a window whose size depends on Locality, then samples its
	// pins within the window. IO pads join a fraction of boundary nets.
	numNets := int(float64(p.NumCells) * p.NetsPerCell)
	stdIdx := func(k int) int { return firstStd + k }
	cellPinBudget := make([]int, p.NumCells)

	// Per-net duplicate-pin rejection uses one reusable epoch-stamped array
	// instead of a fresh map per net, keeping generation allocation-free per
	// net and O(cells) overall — the property that lets the *_big families
	// stream out at 1M cells.
	stamp := make([]int, p.NumCells)
	epoch := 0
	taken := func(ci int) bool { return stamp[ci] == epoch }
	take := func(ci int) { stamp[ci] = epoch }

	for e := 0; e < numNets; e++ {
		deg := sampleDegree(rng, p)
		// Window: with prob Locality, small window (cluster); otherwise wide.
		var window int
		if rng.Float64() < p.Locality {
			window = 8 + rng.Intn(56) // tight cluster: 8..64 cells
		} else {
			window = p.NumCells // global
		}
		if window > p.NumCells {
			window = p.NumCells
		}
		if window < 2*deg {
			// The window must comfortably hold deg distinct cells.
			window = minInt(2*deg, p.NumCells)
		}
		if deg > window {
			deg = window
		}
		start := 0
		if p.NumCells > window {
			start = rng.Intn(p.NumCells - window + 1)
		}
		net := b.AddNet("n"+strconv.Itoa(e), 1)
		epoch++
		for k := 0; k < deg; k++ {
			var ci int
			for {
				ci = start + rng.Intn(window)
				if !taken(ci) {
					break
				}
			}
			take(ci)
			cellPinBudget[ci]++
			w := widths[ci]
			offX := (rng.Float64() - 0.5) * w * 0.8
			offY := (rng.Float64() - 0.5) * rowHeight * 0.8
			b.Connect(stdIdx(ci), net, offX, offY)
		}
		// Some nets also attach to an IO pad (boundary nets).
		if p.IOPads > 0 && rng.Float64() < 0.04 {
			b.Connect(firstIO+rng.Intn(p.IOPads), net, 0, 0)
		}
		// Macro pins: macro-adjacent nets (matrix_mult-style dataflow).
		if len(macroRects) > 0 && rng.Float64() < 0.05 {
			mi := rng.Intn(len(macroRects))
			r := macroRects[mi]
			b.Connect(mi, net, (rng.Float64()-0.5)*r.W()*0.9, (rng.Float64()-0.5)*r.H()*0.9)
		}
	}

	// Hot modules: extra intra-module nets that turn the module into a
	// routing hotspot once the placer clusters it.
	if p.HotModules > 0 && p.HotNetBoost > 1 {
		modSize := p.NumCells / (4 * p.HotModules)
		if modSize < 24 {
			modSize = minInt(24, p.NumCells)
		}
		for hm := 0; hm < p.HotModules; hm++ {
			start := (hm*2 + 1) * p.NumCells / (2 * p.HotModules)
			if start+modSize > p.NumCells {
				start = p.NumCells - modSize
			}
			extra := int(float64(modSize) * p.NetsPerCell * (p.HotNetBoost - 1))
			for e := 0; e < extra; e++ {
				deg := sampleDegree(rng, p)
				if deg > modSize {
					deg = modSize
				}
				net := b.AddNet("hot"+strconv.Itoa(hm)+"_"+strconv.Itoa(e), 1)
				epoch++
				for k := 0; k < deg; k++ {
					var ci int
					for {
						ci = start + rng.Intn(modSize)
						if !taken(ci) {
							break
						}
					}
					take(ci)
					b.Connect(stdIdx(ci), net, 0, 0)
				}
			}
		}
	}

	// High-fanout (clock-like) nets.
	for h := 0; h < p.HighFanout; h++ {
		net := b.AddNet("hf"+strconv.Itoa(h), 1)
		fan := 30 + rng.Intn(40)
		epoch++
		connected := 0
		for k := 0; k < fan && connected < p.NumCells; k++ {
			ci := rng.Intn(p.NumCells)
			if taken(ci) {
				continue
			}
			take(ci)
			connected++
			b.Connect(stdIdx(ci), net, 0, 0)
		}
	}

	// ---- PG rails ----
	// Horizontal M2 rails every RowsPerRail rows, full die width; selection
	// and cutting happen later in the pgrail package.
	rpr := p.RowsPerRail
	if rpr <= 0 {
		rpr = 2
	}
	railW := rowHeight * 0.15
	for r := 0; r <= numRows; r += rpr {
		y := die.Lo.Y + float64(r)*rowHeight
		b.AddRail(geom.Segment{
			A: geom.Point{X: die.Lo.X, Y: y},
			B: geom.Point{X: die.Hi.X, Y: y},
		}, railW)
	}

	return b.Build()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func insideAny(p geom.Point, rects []geom.Rect) bool {
	for _, r := range rects {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// sampleDegree draws a net degree: 2 with probability TwoPinFrac, otherwise a
// geometric tail in [3, MaxDegree].
func sampleDegree(rng *rand.Rand, p Params) int {
	if rng.Float64() < p.TwoPinFrac {
		return 2
	}
	d := 3
	for d < p.MaxDegree && rng.Float64() < 0.55 {
		d++
	}
	return d
}

// perimeterPoint returns a point on the die boundary.
func perimeterPoint(rng *rand.Rand, die geom.Rect) (float64, float64) {
	t := rng.Float64()
	switch rng.Intn(4) {
	case 0:
		return die.Lo.X + t*die.W(), die.Lo.Y
	case 1:
		return die.Lo.X + t*die.W(), die.Hi.Y
	case 2:
		return die.Lo.X, die.Lo.Y + t*die.H()
	default:
		return die.Hi.X, die.Lo.Y + t*die.H()
	}
}

// placeMacros realizes the family's macro layout inside the die.
func placeMacros(rng *rand.Rand, p Params, die geom.Rect) []geom.Rect {
	if p.Macros == 0 || p.MacroLayout == MacroNone {
		return nil
	}
	targetArea := die.Area() * p.MacroFrac
	each := targetArea / float64(p.Macros)
	var out []geom.Rect
	switch p.MacroLayout {
	case MacroGrid:
		// Near-square array with channels between macros (Fig. 4's layout).
		cols := int(math.Ceil(math.Sqrt(float64(p.Macros))))
		rows := (p.Macros + cols - 1) / cols
		mw := math.Sqrt(each * 1.1)
		mh := each / mw
		gapX := (die.W() - float64(cols)*mw) / float64(cols+1)
		gapY := (die.H() - float64(rows)*mh) / float64(rows+1)
		if gapX < 0 || gapY < 0 {
			// Macros too big for a grid with channels; shrink.
			mw, mh = die.W()/float64(cols)*0.7, die.H()/float64(rows)*0.7
			gapX = (die.W() - float64(cols)*mw) / float64(cols+1)
			gapY = (die.H() - float64(rows)*mh) / float64(rows+1)
		}
		n := 0
		for r := 0; r < rows && n < p.Macros; r++ {
			for c := 0; c < cols && n < p.Macros; c++ {
				x0 := die.Lo.X + gapX + float64(c)*(mw+gapX)
				y0 := die.Lo.Y + gapY + float64(r)*(mh+gapY)
				out = append(out, geom.NewRect(x0, y0, x0+mw, y0+mh))
				n++
			}
		}
	case MacroEdge:
		// Alternate along left and bottom edges.
		mw := math.Sqrt(each * 1.4)
		mh := each / mw
		for i := 0; i < p.Macros; i++ {
			if i%2 == 0 {
				y0 := die.Lo.Y + (0.1+0.8*rng.Float64())*(die.H()-mh)
				out = append(out, geom.NewRect(die.Lo.X, y0, die.Lo.X+mw, y0+mh))
			} else {
				x0 := die.Lo.X + (0.1+0.8*rng.Float64())*(die.W()-mw)
				out = append(out, geom.NewRect(x0, die.Lo.Y, x0+mw, die.Lo.Y+mh))
			}
		}
	case MacroScattered:
		// Rejection-sample non-overlapping blocks with varied aspect.
		for i := 0; i < p.Macros; i++ {
			a := each * (0.5 + rng.Float64())
			asp := 0.5 + rng.Float64()*1.5
			mw := math.Sqrt(a * asp)
			mh := a / mw
			var r geom.Rect
			placed := false
			for try := 0; try < 200; try++ {
				x0 := die.Lo.X + rng.Float64()*(die.W()-mw)
				y0 := die.Lo.Y + rng.Float64()*(die.H()-mh)
				r = geom.NewRect(x0, y0, x0+mw, y0+mh)
				ok := true
				for _, q := range out {
					if r.Pad(2).Intersects(q) {
						ok = false
						break
					}
				}
				if ok {
					placed = true
					break
				}
			}
			if placed {
				out = append(out, r)
			}
		}
	}
	return out
}
